(** Schedule introspection and cycle attribution ([spd explain]).

    For one workload, takes the STATIC and SPEC pipelines and the SPEC
    program's trace from an engine session's stage nodes, schedules
    every SPEC tree on the requested machine, charges the trace on that
    schedule ({!Spd_sim.Timing.charge_tree}), and renders cycle-by-FU
    occupancy grids, critical-path attributions
    ({!Spd_machine.Critpath}) and a program-wide per-region table whose
    cycle column sums exactly to the simulator's reported total. *)

module Schedule = Spd_machine.Schedule
module Critpath = Spd_machine.Critpath

(** Schema identifier of the JSON document: ["spd-explain/1"]. *)
val schema : string

(** One scheduled-and-analyzed SPEC tree. *)
type tree_view = {
  func : string;
  tree : Spd_ir.Tree.t;
  schedule : Schedule.t;
  critpath : Critpath.t;
  static_span : int option;  (** same tree's makespan under STATIC *)
  static_ambig : int option;
      (** STATIC makespan cycles attributed to ambiguous arcs *)
  traversals : int;
  cycles : int;  (** simulated cycles attributed to this tree *)
}

type t = {
  workload : string;
  width : int;
  mem_latency : int;
  total_cycles : int;  (** the simulator's reported cycle count *)
  total_traversals : int;
  applications : Spd_core.Heuristic.application list;
  trees : tree_view list;  (** every tree of the program, in order *)
}

(** Analyze [workload] on a [width]-unit machine (default 5 FUs,
    2-cycle memory), with the STATIC and SPEC preparations of the
    session's stage nodes ({!Engine.Session.prepared},
    {!Engine.Session.trace}), so repeated requests prepare and interpret
    nothing twice.  Raises [Invalid_argument] for an unknown workload
    name and {!Engine.Cell_failed} when a node failed. *)
val analyze :
  ?width:int -> ?mem_latency:int -> Engine.Session.t -> string -> t

(** The trees matching the [--fn] / [--tree] filters. *)
val selected : ?fn:string -> ?tree:int -> t -> tree_view list

(** The cycle-by-FU occupancy grid of one tree, SpD versions
    annotated. *)
val grid_table : t -> tree_view -> Table.t

(** The critical-path attribution of one tree; category totals sum to
    the makespan. *)
val critpath_table : tree_view -> Table.t

(** The program-wide per-region attribution; the cycles column sums
    exactly to [total_cycles] (asserted by the test suite). *)
val regions_table : t -> Table.t

(** Every table of an explain run: per selected tree the occupancy grid
    and critical path, then the program-wide region attribution. *)
val tables : ?fn:string -> ?tree:int -> t -> Table.t list

(** The [spd-explain/1] JSON document. *)
val to_json : ?fn:string -> ?tree:int -> t -> Spd_telemetry.Json.t
