(** The benchmark registry: Table 6-2 of the paper. *)


(** The benchmark registry: Table 6-2 of the paper. *)
val all : Workload.t list

(** Workloads outside the paper's Table 6-2 set: resolvable by name (the
    [spd] CLI, [spd explain]) but excluded from [all]/[names] so the
    paper artefacts, bench reports and their caches are unaffected. *)
val extras : Workload.t list

val nrc : Workload.t list
val by_name : string -> Workload.t
val names : string list

(** Every name a request may use: [names], then the extras. *)
val known : string list

(** Source line count, for the Table 6-2 printout. *)
val lines : Workload.t -> int
