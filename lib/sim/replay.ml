(** Per-tree table of traversal outcomes, with exact-replay memoization
    of per-traversal bookkeeping.

    Every traversal of a tree is counted under its outcome
    [(taken exit, guarded-store commit set)]: the run's exact outcome
    histogram ({!Outcomes}), which {!Timing.charge} prices after the
    run.  The key is a packed int when the tree has at most
    {!max_guarded_stores} guarded stores, all on the specialized store
    path, and a byte string of the commit set otherwise — wider, equally
    exact; no outcome is ever dropped.

    A traversal's {e bookkeeping} — which memory dependence arcs had
    both endpoints committed, and how many guarded stores were squashed
    — is a pure function of the tree and its outcome, so each entry can
    also carry a summary the interpreter replays instead of re-walking
    the tree's instructions.  Whenever a guard outcome differs — in
    particular when an SpD-transformed region's alias predicate flips,
    changing which version's guarded stores commit — the key differs
    and the traversal falls back to the full walk, so every [Profile]
    and [Profile.Spd] counter stays exact.  Concrete memory addresses
    are {e not} part of the key: alias hits
    ([Profile.arc_stat.aliased]) are recounted on every traversal from
    the live address buffer, over the summary's committed-arc list.

    A table is private to one interpreter run (profiles and watches are
    fixed for a run, so a summary can never leak across
    configurations).  Summaries are capped per tree; outcome counts are
    not. *)

type active_arc = {
  stat : Profile.arc_stat;  (** the arc's profile counters *)
  spos : int;  (** source position in the tree, for address compares *)
  dpos : int;
}

type summary = {
  squashed : int;  (** guarded stores whose guard came out false *)
  active_arcs : active_arc array;
      (** memory dependence arcs with both endpoints committed; empty
          when the run collects no profile *)
}

type entry = {
  taken : int;
  committed : int array;
  mutable count : int;
  mutable summary : summary option;
}

type t = {
  gstore_pos : int array;
      (** positions of the tree's guarded stores; bit [i] of a packed
          commit mask is [gstore_pos.(i)] *)
  packed : bool;
  narrow : (int, entry) Hashtbl.t;
  wide : (string, entry) Hashtbl.t;
  mutable summaries : int;
  max_entries : int;
}

(** Guarded stores representable in the packed key, leaving room for the
    taken-exit index in the upper bits of a 63-bit int. *)
let max_guarded_stores = 40

let default_max_entries = 1024

let create ?(max_entries = default_max_entries) ~packed ~gstore_pos () =
  let packed =
    packed && Array.length gstore_pos <= max_guarded_stores
  in
  {
    gstore_pos;
    packed;
    narrow = Hashtbl.create (if packed then 16 else 1);
    wide = Hashtbl.create (if packed then 1 else 16);
    summaries = 0;
    max_entries;
  }

let packed t = t.packed

let new_entry ~taken committed =
  { taken; committed; count = 0; summary = None }

let record t ~taken ~gmask =
  let key = (taken lsl Array.length t.gstore_pos) lor gmask in
  let e =
    match Hashtbl.find t.narrow key with
    | e -> e
    | exception Not_found ->
        let committed = ref [] in
        for i = Array.length t.gstore_pos - 1 downto 0 do
          if gmask land (1 lsl i) <> 0 then
            committed := t.gstore_pos.(i) :: !committed
        done;
        let e = new_entry ~taken (Array.of_list !committed) in
        Hashtbl.add t.narrow key e;
        e
  in
  e.count <- e.count + 1;
  e

let record_wide t ~taken ~(active : bool array) =
  let n = Array.length t.gstore_pos in
  let key = Bytes.make (n + 8) '\000' in
  Bytes.set_int64_le key 0 (Int64.of_int taken);
  Array.iteri
    (fun i pos -> if active.(pos) then Bytes.set key (8 + i) '\001')
    t.gstore_pos;
  let key = Bytes.unsafe_to_string key in
  let e =
    match Hashtbl.find t.wide key with
    | e -> e
    | exception Not_found ->
        let committed =
          List.filter (fun pos -> active.(pos)) (Array.to_list t.gstore_pos)
        in
        let e = new_entry ~taken (Array.of_list committed) in
        Hashtbl.add t.wide key e;
        e
  in
  e.count <- e.count + 1;
  e

let summary e = e.summary

let remember t e s =
  match e.summary with
  | None when t.summaries < t.max_entries ->
      e.summary <- Some s;
      t.summaries <- t.summaries + 1
  | _ -> ()

let outcomes t : Outcomes.outcome array =
  let acc = ref [] in
  let add _ e =
    acc :=
      { Outcomes.taken = e.taken; committed = e.committed; count = e.count }
      :: !acc
  in
  Hashtbl.iter add t.narrow;
  Hashtbl.iter add t.wide;
  let a = Array.of_list !acc in
  Array.sort
    (fun (a : Outcomes.outcome) (b : Outcomes.outcome) ->
      compare (a.taken, a.committed) (b.taken, b.committed))
    a;
  a
