(** Timing tables and the cycle charge of a run.

    The scheduler (or the infinite-machine ASAP analysis) produces, for
    every tree, the completion cycle of each instruction and of each exit
    branch.  A traversal that takes exit [k] and commits stores [S] costs

    [max (exit_completion.(k), max over s in S of insn_completion(s))]

    cycles: the machine leaves the tree when the taken branch resolves and
    all committed state has drained.  The charge depends on the traversal
    only through its outcome, so a run is priced from its outcome
    histogram ({!Outcomes}) after the fact. *)

open Spd_ir

type tree_timing = {
  insn_completion : int array;
      (** indexed by position in [Tree.insns]; completion = issue + latency *)
  exit_completion : int array;  (** indexed by exit position *)
}

type t = (string * int, tree_timing) Hashtbl.t
(** keyed by (function name, tree id) *)

let create () : t = Hashtbl.create 64

let add (t : t) ~func ~tree_id timing = Hashtbl.replace t (func, tree_id) timing

let find (t : t) ~func ~tree_id =
  match Hashtbl.find_opt t (func, tree_id) with
  | Some x -> x
  | None ->
      invalid_arg
        (Fmt.str "Timing.find: no timing for %s tree %d" func tree_id)

(** The cycles of one tree's traversals: each distinct outcome's charge
    times its count. *)
let charge_tree (t : t) (tr : Outcomes.tree) =
  let tt = find t ~func:tr.func ~tree_id:tr.tree_id in
  let latest from positions =
    Array.fold_left (fun m pos -> max m tt.insn_completion.(pos)) from positions
  in
  let always = latest 0 tr.stores in
  Array.fold_left
    (fun acc (o : Outcomes.outcome) ->
      let cost =
        latest (max always tt.exit_completion.(o.taken)) o.committed
      in
      acc + (cost * o.count))
    0 tr.outcomes

(** The cycles of a whole run: the sum over its trees. *)
let charge (t : t) (outcomes : Outcomes.t) =
  List.fold_left (fun acc tr -> acc + charge_tree t tr) 0 outcomes

(** Longest completion over the whole tree; a simple upper bound used in
    diagnostics. *)
let span tt =
  let m = Array.fold_left max 0 tt.insn_completion in
  Array.fold_left max m tt.exit_completion

let pp ppf (tr : Tree.t) tt =
  Fmt.pf ppf "@[<v>timing %s:@," tr.name;
  Array.iteri
    (fun i insn ->
      Fmt.pf ppf "  #%-3d done@%-4d %a@," insn.Insn.id tt.insn_completion.(i)
        Insn.pp insn)
    tr.insns;
  Array.iteri
    (fun k e ->
      Fmt.pf ppf "  exit%-2d done@%-4d %a@," k tt.exit_completion.(k)
        Tree.pp_exit e)
    tr.exits;
  Fmt.pf ppf "@]"
