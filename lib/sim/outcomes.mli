(** Traversal-outcome histograms.

    A traversal's {e outcome} is the exit it took and the set of guarded
    stores whose guard held.  The cycle charge of a traversal on any
    machine ({!Timing.charge}) is a function of its tree and its outcome
    alone, so one interpreter run's exact per-tree histogram of outcomes
    prices the run on every machine width and memory latency without
    interpreting the program again. *)

type outcome = {
  taken : int;  (** index of the exit taken *)
  committed : int array;
      (** positions (in [Tree.insns]) of the guarded stores whose guard
          held, ascending *)
  count : int;  (** traversals with this outcome, at least 1 *)
}

type tree = {
  func : string;
  tree_id : int;
  stores : int array;
      (** positions of the tree's unguarded stores, which commit on
          every traversal *)
  outcomes : outcome array;  (** distinct outcomes, sorted *)
}

(** One run's histogram: every traversed tree, sorted by (function, tree
    id); trees never traversed are absent. *)
type t = tree list

(** Traversals of one tree: the sum of its outcome counts. *)
val traversals : tree -> int

val find : t -> func:string -> tree_id:int -> tree option
