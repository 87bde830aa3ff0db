(** Domain-parallel experiment engine.

    The paper's evaluation grid — benchmarks × pipelines × memory
    latencies × machine widths — is embarrassingly parallel and every
    cell is a pure function of the workload source and the pipeline
    configuration.  A {!Session} owns all mutable state needed to
    exploit that: a fixed-size pool of OCaml 5 domains, promise-style
    per-cell memoization (each cell computed exactly once; concurrent
    requesters block on its promise), an optional content-addressed
    on-disk result cache under [_spd_cache/], and per-stage wall-clock
    instrumentation.

    Work is requested through one typed entry point:
    {!Session.submit} takes a {!Query.t} — artefact kind, cell
    coordinates, optional per-request budgets — and returns a
    {!value} {!outcome}.  Every consumer (the CLIs, the report
    builders, the [spd serve] daemon) goes through this single path,
    so a served request and the equivalent CLI invocation read the
    same memoized cell and emit identical values.

    Failures are contained per cell: a cell that keeps raising after
    its retry budget is recorded as a {!failure} and surfaced as a
    [Failed] {!outcome}; the rest of the batch still completes.  The
    on-disk cache is self-healing — corrupt or truncated entries are
    detected by checksum, evicted and recomputed.

    Cells are computed from a DAG of memoized stage nodes, each keyed
    by exactly its inputs: the lowered program per workload; the
    cleaned (NAIVE) and statically disambiguated (STATIC) programs per
    (workload, graft); the NAIVE and STATIC profiles per (workload,
    graft, budget); the NAIVE, STATIC and PERFECT pipelines per
    (workload, graft, budget); SPEC, the only latency-dependent
    preparation, per (workload, graft, latency, heuristic parameters,
    budget); and one trace — observation and traversal-outcome
    histogram — per distinct program content and budget, which every
    correctness check compares and every cycle count charges on its
    machine's schedule.  Each node is computed once per session,
    whichever pipeline, latency or request asks for it first.

    Results are deterministic in the number of jobs: the schedule
    changes only who computes a value, never the value. *)

(** Bumped whenever the compiler, scheduler, simulator or the on-disk
    entry format change in a way that affects emitted numbers or
    decoding; invalidates the on-disk cache. *)
val cache_version : string

(** {1 Per-cell outcomes} *)

type failure = {
  key : string;  (** the cell key, [bench/latency/KIND/metric] *)
  exn : exn;
  backtrace : Printexc.raw_backtrace;
  attempts : int;  (** how many times the cell was attempted *)
  elapsed : float;  (** wall-clock seconds across all attempts *)
}

type 'a outcome = Ok of 'a | Failed of failure

(** Raised by callers that need the value of a cell that failed (e.g.
    [Why.analyze]). *)
exception Cell_failed of failure

val pp_failure : Format.formatter -> failure -> unit

(** {1 Typed queries}

    A {!Query.t} names one grid cell's artefact — the only request
    shape the engine accepts.  Optional [fuel]/[deadline] budgets act
    as per-request quotas: they can only {e tighten} the session's own
    budgets, and a budget-carrying query gets its own memo cell (so a
    quota-starved tenant's failure never poisons the unbudgeted cell,
    and N identical budgeted queries still cost one computation). *)

module Query : sig
  (** What to compute for the (bench, latency) cell. *)
  type artefact =
    | Cycles of { kind : Pipeline.kind; width : Spd_machine.Descr.width }
        (** measured cycle count (disk-cacheable) *)
    | Hw_cycles of { window : int; width : Spd_machine.Descr.width }
        (** cycle count of the STATIC program on a machine whose
            load/store hardware reorders memory references within
            [window] references (section 2.3; disk-cacheable) *)
    | Code_size of Pipeline.kind
        (** static code size in operations (disk-cacheable) *)
    | Spd_counts
        (** SpD applications by dependence kind — a Table 6-3 row *)
    | Spd_dynamics
        (** run-time alias/no-alias commit counts of the SPEC pipeline *)
    | Spd_decisions
        (** the guidance heuristic's full decision ledger (SPEC) *)
    | Spd_verdicts
        (** per-application translation-validation ledger of the SPEC
            pipeline (disk-cacheable) *)
    | Speedup_over_naive of {
        kind : Pipeline.kind;
        width : Spd_machine.Descr.width;
      }  (** the metric of Figure 6-2 *)
    | Spec_over_static of { width : Spd_machine.Descr.width }
        (** the metric of Figure 6-3 *)
    | Code_growth  (** SPEC code size relative to STATIC (Figure 6-4) *)

  type t = private {
    bench : string;  (** built-in workload name *)
    latency : int;  (** memory latency in cycles (paper: 2 and 6) *)
    artefact : artefact;
    graft : bool;
        (** the program with its loop trees grafted (paper section 7) *)
    spd_params : Spd_core.Heuristic.params option;
        (** SpD guidance-heuristic parameters; [None] is
            {!Spd_core.Heuristic.default_params}, and [v] maps an explicit
            default to [None].  Affects SPEC cells only. *)
    fuel : int option;
        (** per-request traversal quota; tightens the session budget *)
    deadline : float option;
        (** per-request wall-clock quota in seconds; tightens the
            session budget *)
  }

  (** Build a query.  [graft] (default [false]) and [spd_params]
      (default {!Spd_core.Heuristic.default_params}) select the program
      variant of the extension studies; they override the session
      configuration's fields of the same name.  Raises
      [Invalid_argument] on a non-positive [latency], [fuel], [deadline]
      or [Hw_cycles] window. *)
  val v :
    ?fuel:int ->
    ?deadline:float ->
    ?graft:bool ->
    ?spd_params:Spd_core.Heuristic.params ->
    bench:string -> latency:int -> artefact -> t

  (** Stable lowercase artefact-kind name ([cycles], [hw-cycles],
      [code-size], [spd-counts], [spd-dynamics], [spd-decisions],
      [spd-validate], [speedup-over-naive], [spec-over-static],
      [code-growth]) — the wire spelling of the [spd serve] protocol. *)
  val artefact_name : artefact -> string

  (** All artefact-kind names, for diagnostics. *)
  val artefact_names : string list

  (** Canonical human-readable request key,
      [bench/latency/artefact[/KIND][/width][+graft][+me=X+mg=Y+ma=N]
      [+fuel=N][+deadline=S]]; a paper-grid query carries no variant
      tag. *)
  val key : t -> string
end

(** The result of a query: what kind of value it carries follows the
    query's {!Query.artefact} (asserted by the [to_*] projections). *)
type value =
  | Int of int  (** [Cycles], [Hw_cycles], [Code_size] *)
  | Float of float
      (** [Speedup_over_naive], [Spec_over_static], [Code_growth] *)
  | Counts of int * int * int  (** [Spd_counts]: RAW, WAR, WAW *)
  | Dynamics of Pipeline.dynamics  (** [Spd_dynamics] *)
  | Decisions of Spd_core.Heuristic.decision list  (** [Spd_decisions] *)
  | Verdicts of Spd_validate.Validate.report list  (** [Spd_verdicts] *)

(** Projections out of a {!value} outcome; raise [Invalid_argument]
    when the value kind does not match (a caller bug — [submit] always
    returns the kind implied by the artefact). *)

val to_int : value outcome -> int outcome
val to_float : value outcome -> float outcome
val to_counts : value outcome -> (int * int * int) outcome
val to_dynamics : value outcome -> Pipeline.dynamics outcome
val to_decisions :
  value outcome -> Spd_core.Heuristic.decision list outcome

val to_verdicts :
  value outcome -> Spd_validate.Validate.report list outcome

module Stats : sig
  type t = {
    jobs : int;  (** pool size of the session *)
    lowerings : int;  (** source programs compiled to IR *)
    preparations : int;
        (** pipelines actually run (not cache hits): NAIVE, STATIC and
            PERFECT once per (workload, graft, budget), SPEC once per
            latency and heuristic parameters too, plus one per
            validation ledger *)
    simulations : int;  (** schedule+simulate runs actually performed *)
    traces : int;
        (** trace nodes computed — one interpretation per distinct
            program content and budget, shared by every check and cycle
            count of that program *)
    static_runs : int;
        (** static disambiguations run, one per (workload, graft) *)
    profiles : int;
        (** profiling runs: one of NAIVE and one of STATIC per (workload,
            graft, budget) at most *)
    spd_runs : int;
        (** SpD heuristic runs: one per (workload, graft, latency,
            parameters, budget), plus one per validation ledger *)
    disk_hits : int;  (** results served from the on-disk cache *)
    disk_misses : int;  (** on-disk lookups that fell through *)
    disk_evictions : int;
        (** corrupt on-disk entries evicted and recomputed *)
    cell_retries : int;  (** failed attempts that were retried *)
    cell_failures : int;  (** cells that exhausted their attempts *)
    stage_seconds : (Pipeline.stage * float) list;
        (** cumulative wall clock per pipeline stage, across all domains *)
  }

  (** The counters as a sorted association list, [jobs] excluded — every
      included counter is a function of the requested grid alone, so the
      list (and {!pp}'s rendering of it) is bit-identical across job
      counts. *)
  val to_alist : t -> (string * int) list

  (** Sorted [key=value] pairs separated by ["; "]. *)
  val pp : Format.formatter -> t -> unit
end

module Session : sig
  type t

  (** [create ()] makes a fresh session.

      [jobs] bounds the concurrency (spawned domains plus the calling
      one); it defaults to {!Domain.recommended_domain_count}.  Worker
      domains are spawned lazily on the first parallel batch, so a
      session used sequentially costs nothing.

      [disk_cache] (default [false]) enables the content-addressed
      result cache in [cache_dir] (default ["_spd_cache"], created on
      demand; silently disabled if the directory cannot be used).

      [retries] (default [1]) is the number of attempts per cell before
      a failure is recorded.  [deadline] is a per-cell wall-clock budget
      in seconds: once it has elapsed, a failing cell is not retried.
      [fuel] bounds the simulator's tree traversals for every run of the
      session (profiling, checking, timing).  Both act as caps on
      per-request {!Query.t} budgets.

      [faults] arms deterministic fault injection (see {!Faults}); an
      armed [fuel:<n>] fault overrides [fuel].

      [config] is the pipeline configuration every cell is built with;
      its [mem_latency], [graft] and [spd_params] are overridden per
      cell (from the {!Query.t}) and its [timer], if any, is composed
      with the session's stage instrumentation. *)
  val create :
    ?jobs:int ->
    ?disk_cache:bool ->
    ?cache_dir:string ->
    ?retries:int ->
    ?deadline:float ->
    ?fuel:int ->
    ?faults:Faults.t ->
    ?config:Pipeline.Config.t ->
    unit -> t

  (** Join the session's worker domains.  The session remains usable
      sequentially afterwards. *)
  val close : t -> unit

  val jobs : t -> int
  val stats : t -> Stats.t

  (** Every failure recorded so far, sorted by cell key. *)
  val failures : t -> failure list

  (** {1 The request path}

    [submit] is safe to call from any domain; each underlying
    computation (including a failure) happens exactly once per session
    and budget — concurrent identical queries piggyback on the promise
    of whoever got there first, so a burst of N duplicates costs one
    computation.  A failed cell comes back as [Failed] (renderers
    print [n/a]); [submit] itself never raises on a contained cell
    failure. *)

  val submit : t -> Query.t -> value outcome

  (** {1 Pipeline materialization}

    Accessors that return in-memory artefacts rather than {!value}s —
    used by {!Explain}, and not servable over the wire.  They read the
    same memoized stage nodes as {!submit}.  {!prepared} and {!trace}
    run under the contained-failure runner with the node's key
    ([bench/latency/KIND/prepared], [.../trace]): a failing node is
    recorded in {!failures} once, like a cell, and raises
    {!Cell_failed}. *)

  (** Prepared pipeline for a benchmark at a memory latency (the paper
      grid's program variant).  NAIVE, STATIC and PERFECT are shared
      across latencies: the record differs only in its latency fields. *)
  val prepared :
    t -> bench:string -> latency:int -> Pipeline.kind -> Pipeline.prepared

  (** The trace node of that pipeline's program: its observation and
      traversal-outcome histogram, shared with every cell that charges
      it. *)
  val trace :
    t -> bench:string -> latency:int -> Pipeline.kind -> Pipeline.trace

  (** {1 Fan-out}

    [parallel_map t f xs] applies [f] to every element of [xs] on the
    session's pool, preserving order.  The calling domain participates
    in draining the queue, so nested fan-out from inside [f] cannot
    starve the pool.  The first exception raised by any [f x] is
    re-raised after the whole batch has settled.  With [jobs = 1] this
    is exactly [List.map]. *)

  val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
  val parallel_iter : t -> ('a -> unit) -> 'a list -> unit
end
