(** Per-tree table of traversal outcomes, with exact-replay memoization
    of per-traversal bookkeeping.

    The interpreter counts every traversal of a tree under its outcome
    [(taken exit, guarded-store commit set)]; {!outcomes} is the tree's
    exact histogram, which {!Timing.charge} prices after the run.  The
    key is a packed int when the tree has at most {!max_guarded_stores}
    guarded stores, all on the interpreter's specialized store path, and
    a byte string of the commit set otherwise: wider, equally exact.  No
    outcome is ever dropped.

    Each entry can also carry a {!summary} of the traversal's
    bookkeeping — squash count and committed-arc list, a pure function
    of the tree and the outcome — which the interpreter replays instead
    of re-walking the tree.  Any guard outcome difference (e.g. an SpD
    alias predicate flipping) changes the key, so profile and SpD
    counters stay exact.  Alias hits are recounted from live addresses
    on every traversal; they are never cached.  Tables are private to
    one interpreter run; summaries are capped in number, counts are
    not. *)

type active_arc = {
  stat : Profile.arc_stat;  (** the arc's profile counters *)
  spos : int;  (** source position in the tree, for address compares *)
  dpos : int;
}

type summary = {
  squashed : int;  (** guarded stores whose guard came out false *)
  active_arcs : active_arc array;
      (** arcs with both endpoints committed; empty without a profile *)
}

(** One outcome's counter and cached summary. *)
type entry

type t

(** Guarded stores representable in the packed key (40). *)
val max_guarded_stores : int

(** Summaries cached per tree (1024). *)
val default_max_entries : int

(** [create ~packed ~gstore_pos ()] is the table of a tree whose guarded
    stores sit at [gstore_pos] (ascending).  [packed] says the run
    tracks their commits in an int mask, bit [i] for [gstore_pos.(i)];
    the table packs its keys only then and with at most
    {!max_guarded_stores} of them. *)
val create :
  ?max_entries:int -> packed:bool -> gstore_pos:int array -> unit -> t

(** Whether the table keys by {!record} (true) or {!record_wide}. *)
val packed : t -> bool

(** Count one traversal that took exit [taken] with commit mask
    [gmask]; returns its entry.  Only for a {!packed} table. *)
val record : t -> taken:int -> gmask:int -> entry

(** Count one traversal that took exit [taken], reading the commit set
    from [active] (indexed by instruction position). *)
val record_wide : t -> taken:int -> active:bool array -> entry

(** The entry's cached bookkeeping, if any. *)
val summary : entry -> summary option

(** Cache [summary] on the entry, unless the tree already holds
    [max_entries] summaries. *)
val remember : t -> entry -> summary -> unit

(** The tree's outcome histogram, sorted by (taken, committed). *)
val outcomes : t -> Outcomes.outcome array
