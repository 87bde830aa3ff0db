(** Traversal-outcome histograms: per tree, how many traversals took
    each (exit, committed guarded stores) combination.  See the
    interface for why that prices a run on every machine. *)

type outcome = {
  taken : int;
  committed : int array;
  count : int;
}

type tree = {
  func : string;
  tree_id : int;
  stores : int array;
  outcomes : outcome array;
}

type t = tree list

let traversals tr = Array.fold_left (fun n o -> n + o.count) 0 tr.outcomes

let find (t : t) ~func ~tree_id =
  List.find_opt (fun tr -> tr.tree_id = tree_id && String.equal tr.func func) t
