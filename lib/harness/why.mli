(** Decision-ledger introspection ([spd why]).

    Reads the SPEC pipeline's guidance-heuristic decision ledger
    through the engine's single request path and renders it as data:
    per tree, every candidate ambiguous arc with its [Gain()] numbers,
    static-disambiguation provenance, budgets and verdict, plus a
    summary with the rejection-reason histogram.  The [spd why] CLI,
    the daemon's [why] method and the [spd report spd-decisions]
    artefact all read the same memoized cell through this module. *)

(** Schema identifier of the JSON document: ["spd-decisions/1"]. *)
val schema : string

type t = {
  workload : string;
  mem_latency : int;
  decisions : Spd_core.Heuristic.decision list;
      (** the full ledger, in ledger order: applied entries first (in
          application order), then every surviving ambiguous arc *)
}

(** [analyze session workload] fetches the decision ledger (default
    2-cycle memory).  Raises [Invalid_argument] for an unknown
    workload name and {!Engine.Cell_failed} when the cell failed. *)
val analyze : ?mem_latency:int -> Engine.Session.t -> string -> t

(** The ledger entries matching the [--fn] / [--tree] filters. *)
val selected :
  ?fn:string -> ?tree:int -> t -> Spd_core.Heuristic.decision list

(** Ledger entries grouped per (function, tree id), preserving ledger
    order. *)
val groups :
  Spd_core.Heuristic.decision list ->
  ((string * int) * Spd_core.Heuristic.decision list) list

(** Stable lowercase dependence-kind name ([raw], [war], [waw]). *)
val kind_name : Spd_ir.Memdep.kind -> string

(** One ledger entry as a [spd-decisions/1] decision object. *)
val decision_json : Spd_core.Heuristic.decision -> Spd_telemetry.Json.t

(** The per-workload [spd-decisions/1] document: aggregate counts and
    the rejection histogram, then the ledger grouped per tree. *)
val to_json : ?fn:string -> ?tree:int -> t -> Spd_telemetry.Json.t

(** The per-tree decision table of one group. *)
val decisions_table :
  t -> (string * int) * Spd_core.Heuristic.decision list -> Table.t

(** The program-wide summary over a selection: candidate/applied
    counts, the rejection histogram, the acceptance rate. *)
val summary_table : t -> Spd_core.Heuristic.decision list -> Table.t

(** Every table of a why run: per selected tree the decision table,
    then the summary over the same selection. *)
val tables : ?fn:string -> ?tree:int -> t -> Table.t list
