(** Timing tables and the cycle charge of a run.

    The scheduler (or the infinite-machine ASAP analysis) produces, for
    every tree, the completion cycle of each instruction and of each exit
    branch.  A traversal that takes exit [k] and commits stores [S] costs

    [max (exit_completion.(k), max over s in S of insn_completion(s))]

    cycles: the machine leaves the tree when the taken branch resolves and
    all committed state has drained — the paper's measurement
    methodology.  That charge depends on the traversal only through its
    outcome (the taken exit and the committed guarded stores), never on
    addresses or values, so a run is priced from the exact outcome
    histogram the interpreter records ({!Outcomes}): one interpretation
    serves every machine width and memory latency. *)

type tree_timing = {
  insn_completion : int array;
  exit_completion : int array;
}
type t = (string * int, tree_timing) Hashtbl.t

(** keyed by (function name, tree id) *)
val create : unit -> t
val add : t -> func:string -> tree_id:int -> tree_timing -> unit
val find : t -> func:string -> tree_id:int -> tree_timing

(** [charge_tree t tr] is the cycles of tree [tr]'s traversals under
    [t]: the per-traversal charge above, summed over [tr]'s outcomes.
    Raises [Invalid_argument] when [t] has no timing for the tree. *)
val charge_tree : t -> Outcomes.tree -> int

(** [charge t outcomes] is the total cycles of the run that recorded
    [outcomes], on the machine [t] describes: the sum of
    {!charge_tree}. *)
val charge : t -> Outcomes.t -> int

(** Longest completion over the whole tree; a simple upper bound used in
    diagnostics. *)
val span : tree_timing -> int
val pp : Format.formatter -> Spd_ir.Tree.t -> tree_timing -> unit
