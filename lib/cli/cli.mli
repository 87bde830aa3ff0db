(** The [spd] command-line tool: every subcommand, with the query
    surfaces ([report], [explain], [why], [validate]) derived from
    {!Spd_serve.Surface.table}.  [bin/spd.exe] and its alias
    [bench/main.exe] (= [spd report]) are one call to {!main}. *)

(** [main ?prefix argv] runs the command line [argv] with [prefix]
    inserted after the program name, then exits with its status. *)
val main : ?prefix:string list -> string array -> unit

(** The [spd bench NAME] table: the workload's cycles under each
    pipeline on a [width] machine and the speedup over NAIVE, each a
    {!Spd_harness.Engine.Query.Cycles} request on [session]. *)
val bench_table :
  Spd_harness.Engine.Session.t ->
  bench:string ->
  mem_latency:int ->
  width:Spd_machine.Descr.width ->
  Format.formatter ->
  unit
