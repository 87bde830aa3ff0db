(** Domain-parallel experiment engine.

    The paper's evaluation is an embarrassingly parallel grid —
    benchmarks × pipelines × memory latencies × machine widths — and
    every cell is a pure function of the workload source and the
    pipeline configuration.  A {!Session} exploits both facts:

    - {b promise-style memoization}: each cell, and each stage node a
      cell is computed from (see the stage DAG in {!Session}), is
      computed exactly once per session; concurrent requesters block
      on the promise of the domain already computing it;
    - {b a fixed-size domain pool}: [jobs] ways of parallelism
      (including the calling domain, which drains the task queue while
      it waits, so [jobs = 1] degenerates to plain sequential
      evaluation and nested fan-out cannot starve the pool);
    - {b a content-addressed on-disk result cache}: the digest of the
      workload source, the pipeline fingerprint and the machine
      description addresses the resulting cycle count / SpD summary
      under [_spd_cache/], so warm re-runs skip lowering, profiling,
      SpD and scheduling entirely;
    - {b per-stage wall-clock instrumentation}, surfaced through
      {!Session.stats} and rendered by [Report.timings_tables].

    Results are deterministic in [jobs]: cells are pure, so the
    schedule changes only who computes a value, never the value. *)

module W = Spd_workloads

(* Bumped whenever the compiler, scheduler, simulator or the on-disk
   entry format change in a way that affects emitted numbers or decoding;
   invalidates every on-disk entry.  "2": checksummed entry format.
   "3": [Dynamics] entries; SpD applications carry their predicate
   register.  "4": [Decisions] entries; memory arcs carry their
   ambiguity provenance.  "5": [D_verdicts] entries — the
   translation-validation ledger. *)
let cache_version = "5"

(* Engine-level metrics, mirrored alongside the per-session [Stats]
   counters so a metrics snapshot covers multi-session processes too. *)
module M = Spd_telemetry.Metrics
module Log = Spd_telemetry.Log
module Clock = Spd_telemetry.Clock

let m_lowerings = M.counter "spd.engine.lowerings"
let m_preparations = M.counter "spd.engine.preparations"
let m_simulations = M.counter "spd.engine.simulations"
let m_traces = M.counter "spd.engine.traces"
let m_static_runs = M.counter "spd.engine.static_runs"
let m_profiles = M.counter "spd.engine.profiles"
let m_spd_runs = M.counter "spd.engine.spd_runs"
let m_cache_hits = M.counter "spd.engine.cache.hits"
let m_cache_misses = M.counter "spd.engine.cache.misses"
let m_cache_evictions = M.counter "spd.engine.cache.evictions"

(* the short [spd.cache.*] names surfaced by `spd cache stats` and the
   Prometheus exposition, fired alongside the [spd.engine.cache.*]
   counters above *)
let m_cache_hit = M.counter "spd.cache.hit"
let m_cache_miss = M.counter "spd.cache.miss"
let m_cache_evict = M.counter "spd.cache.evict"
let m_cell_retries = M.counter "spd.engine.cells.retried"
let m_cell_failures = M.counter "spd.engine.cells.failed"
let m_queries = M.counter "spd.engine.queries"

let m_stage_seconds =
  List.map
    (fun st ->
      ( st,
        M.histogram ~buckets:M.time_buckets
          ("spd.engine.stage_seconds." ^ Pipeline.stage_name st) ))
    Pipeline.stages

(* ------------------------------------------------------------------ *)
(* Promise-style memo table, safe for concurrent use from domains.  The
   first requester of a key installs [Pending] and computes outside the
   lock; later requesters wait on the condition until the promise is
   fulfilled (or broken — the exception is replayed, with the original
   backtrace re-attached, to every waiter). *)

module Memo : sig
  type ('k, 'v) t
  val create : int -> ('k, 'v) t
  val get : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
end = struct
  type 'v state =
    | Pending
    | Done of 'v
    | Broken of exn * Printexc.raw_backtrace

  type ('k, 'v) t = {
    mu : Mutex.t;
    fulfilled : Condition.t;
    tbl : ('k, 'v state) Hashtbl.t;
  }

  let create n =
    { mu = Mutex.create (); fulfilled = Condition.create ();
      tbl = Hashtbl.create n }

  let get t k f =
    Mutex.lock t.mu;
    let rec decide () =
      match Hashtbl.find_opt t.tbl k with
      | Some (Done v) -> Mutex.unlock t.mu; v
      | Some (Broken (e, bt)) ->
          Mutex.unlock t.mu;
          Printexc.raise_with_backtrace e bt
      | Some Pending -> Condition.wait t.fulfilled t.mu; decide ()
      | None ->
          Hashtbl.replace t.tbl k Pending;
          Mutex.unlock t.mu;
          let result =
            try Ok (f ())
            with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          Mutex.lock t.mu;
          Hashtbl.replace t.tbl k
            (match result with
            | Ok v -> Done v
            | Error (e, bt) -> Broken (e, bt));
          Condition.broadcast t.fulfilled;
          Mutex.unlock t.mu;
          (match result with
          | Ok v -> v
          | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    in
    decide ()
end

(* ------------------------------------------------------------------ *)
(* Fixed-size worker pool.  Domains are spawned lazily on the first
   batch; the caller of [map] participates in draining the queue, so a
   pool of size [n] runs at most [n] tasks concurrently ([n - 1]
   spawned domains plus the caller) and a task that itself fans out
   keeps making progress even when every worker is busy. *)

module Pool : sig
  type t
  val create : size:int -> t
  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  val close : t -> unit
end = struct
  type batch = {
    mutable remaining : int;
    mutable failed : (exn * Printexc.raw_backtrace) option;
    backtraces : bool;
        (* the submitting domain's backtrace recording: a spawned domain
           starts with recording off, whatever its parent's status *)
  }
  type task = { run : unit -> unit; batch : batch }

  type t = {
    mu : Mutex.t;
    work : Condition.t;  (* queue became non-empty, or shutdown *)
    donec : Condition.t;  (* some batch completed *)
    queue : task Queue.t;
    size : int;
    mutable spawned : bool;
    mutable shutdown : bool;
    mutable workers : unit Domain.t list;
  }

  let create ~size =
    { mu = Mutex.create (); work = Condition.create ();
      donec = Condition.create (); queue = Queue.create (); size;
      spawned = false; shutdown = false; workers = [] }

  let run_task t task =
    Printexc.record_backtrace task.batch.backtraces;
    (try task.run ()
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       Mutex.lock t.mu;
       if task.batch.failed = None then task.batch.failed <- Some (e, bt);
       Mutex.unlock t.mu);
    Mutex.lock t.mu;
    task.batch.remaining <- task.batch.remaining - 1;
    if task.batch.remaining = 0 then Condition.broadcast t.donec;
    Mutex.unlock t.mu

  let rec worker t =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.shutdown do
      Condition.wait t.work t.mu
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mu (* shutdown *)
    else begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.mu;
      run_task t task;
      worker t
    end

  let ensure_spawned t =
    Mutex.lock t.mu;
    if (not t.spawned) && t.size > 1 then begin
      t.spawned <- true;
      t.workers <-
        List.init (t.size - 1) (fun _ -> Domain.spawn (fun () -> worker t))
    end;
    Mutex.unlock t.mu

  let map t f xs =
    match xs with
    | [] -> []
    | [ x ] -> [ f x ]
    | _ when t.size <= 1 -> List.map f xs
    | xs ->
        ensure_spawned t;
        let arr = Array.of_list xs in
        let out = Array.make (Array.length arr) None in
        let backtraces = Printexc.backtrace_status () in
        let batch = { remaining = Array.length arr; failed = None; backtraces } in
        Mutex.lock t.mu;
        Array.iteri
          (fun i x ->
            Queue.push { run = (fun () -> out.(i) <- Some (f x)); batch }
              t.queue)
          arr;
        Condition.broadcast t.work;
        (* the caller is the pool's [size]-th worker until its batch
           completes *)
        let rec drain () =
          if batch.remaining = 0 then Mutex.unlock t.mu
          else if not (Queue.is_empty t.queue) then begin
            let task = Queue.pop t.queue in
            Mutex.unlock t.mu;
            run_task t task;
            Mutex.lock t.mu;
            drain ()
          end
          else begin
            Condition.wait t.donec t.mu;
            drain ()
          end
        in
        drain ();
        (match batch.failed with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ());
        Array.to_list (Array.map Option.get out)

  let close t =
    Mutex.lock t.mu;
    t.shutdown <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mu;
    List.iter Domain.join t.workers;
    t.workers <- []
end

(* ------------------------------------------------------------------ *)
(* Per-cell outcomes.  A failing grid cell no longer aborts a batch:
   the failure — original exception, backtrace, attempt count, elapsed
   wall clock — is captured, memoized like any other cell value, and
   surfaced to renderers as [Failed]. *)

type failure = {
  key : string;  (** the cell key, [bench/latency/KIND/metric] *)
  exn : exn;
  backtrace : Printexc.raw_backtrace;
  attempts : int;  (** how many times the cell was attempted *)
  elapsed : float;  (** wall-clock seconds across all attempts *)
}

type 'a outcome = Ok of 'a | Failed of failure

(** Raised by callers that need the value of a cell that failed. *)
exception Cell_failed of failure

let pp_failure ppf f =
  Fmt.pf ppf "%s: %s (attempts %d, %.1fs)" f.key (Printexc.to_string f.exn)
    f.attempts f.elapsed

let () =
  Printexc.register_printer (function
    | Cell_failed f -> Some (Fmt.str "Cell_failed: %a" pp_failure f)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Typed queries: the one request shape the engine accepts.  A query
   names an artefact of a (bench, latency) cell, optionally of a grafted
   program or under non-default heuristic parameters (the extension
   studies), plus optional per-request budgets.  Budgets only *tighten*
   the session's own budgets, and a budgeted query memoizes under its
   own cell — a quota-starved request can fail without poisoning the
   unbudgeted cell, while N identical budgeted requests still cost one
   computation. *)

let width_tag = function
  | Spd_machine.Descr.Infinite -> "inf"
  | Spd_machine.Descr.Fus n -> "fus" ^ string_of_int n

(* the program variant of a cell, appended to its keys only when it
   differs from the paper grid's, so grid keys read as they always did *)
let variant_tag ~graft ~(spd_params : Spd_core.Heuristic.params option) =
  (if graft then "+graft" else "")
  ^
  match spd_params with
  | None -> ""
  | Some p ->
      Printf.sprintf "+me=%g+mg=%g+ma=%d" p.max_expansion p.min_gain
        p.max_applications

module Query = struct
  type artefact =
    | Cycles of { kind : Pipeline.kind; width : Spd_machine.Descr.width }
    | Hw_cycles of { window : int; width : Spd_machine.Descr.width }
    | Code_size of Pipeline.kind
    | Spd_counts
    | Spd_dynamics
    | Spd_decisions
    | Spd_verdicts
    | Speedup_over_naive of {
        kind : Pipeline.kind;
        width : Spd_machine.Descr.width;
      }
    | Spec_over_static of { width : Spd_machine.Descr.width }
    | Code_growth

  type t = {
    bench : string;
    latency : int;
    artefact : artefact;
    graft : bool;
    spd_params : Spd_core.Heuristic.params option;
    fuel : int option;
    deadline : float option;
  }

  let artefact_name = function
    | Cycles _ -> "cycles"
    | Hw_cycles _ -> "hw-cycles"
    | Code_size _ -> "code-size"
    | Spd_counts -> "spd-counts"
    | Spd_dynamics -> "spd-dynamics"
    | Spd_decisions -> "spd-decisions"
    | Spd_verdicts -> "spd-validate"
    | Speedup_over_naive _ -> "speedup-over-naive"
    | Spec_over_static _ -> "spec-over-static"
    | Code_growth -> "code-growth"

  let artefact_names =
    [
      "cycles"; "hw-cycles"; "code-size"; "spd-counts"; "spd-dynamics";
      "spd-decisions"; "spd-validate"; "speedup-over-naive";
      "spec-over-static"; "code-growth";
    ]

  let v ?fuel ?deadline ?(graft = false) ?spd_params ~bench ~latency artefact
      =
    let positive what n =
      if n < 1 then
        invalid_arg
          (Printf.sprintf "Engine.Query.v: %s must be positive, got %d" what n)
    in
    positive "latency" latency;
    Option.iter (positive "fuel") fuel;
    (match artefact with
    | Hw_cycles { window; _ } -> positive "window" window
    | _ -> ());
    (match deadline with
    | Some d when d <= 0.0 ->
        invalid_arg
          (Printf.sprintf "Engine.Query.v: deadline must be positive, got %g"
             d)
    | _ -> ());
    {
      bench;
      latency;
      artefact;
      graft;
      spd_params = Pipeline.Config.canonical_params spd_params;
      fuel;
      deadline;
    }

  let key (q : t) =
    let detail =
      match q.artefact with
      | Cycles { kind; width } ->
          Printf.sprintf "/%s/%s" (Pipeline.name kind) (width_tag width)
      | Hw_cycles { window; width } ->
          Printf.sprintf "/w%d/%s" window (width_tag width)
      | Code_size kind -> "/" ^ Pipeline.name kind
      | Spd_counts | Spd_dynamics | Spd_decisions | Spd_verdicts
      | Code_growth ->
          ""
      | Speedup_over_naive { kind; width } ->
          Printf.sprintf "/%s/%s" (Pipeline.name kind) (width_tag width)
      | Spec_over_static { width } -> "/" ^ width_tag width
    in
    let budget =
      (match q.fuel with
      | None -> ""
      | Some n -> Printf.sprintf "+fuel=%d" n)
      ^
      match q.deadline with
      | None -> ""
      | Some d -> Printf.sprintf "+deadline=%g" d
    in
    Printf.sprintf "%s/%d/%s%s%s%s" q.bench q.latency
      (artefact_name q.artefact)
      detail
      (variant_tag ~graft:q.graft ~spd_params:q.spd_params)
      budget
end

type value =
  | Int of int
  | Float of float
  | Counts of int * int * int
  | Dynamics of Pipeline.dynamics
  | Decisions of Spd_core.Heuristic.decision list
  | Verdicts of Spd_validate.Validate.report list

let value_kind = function
  | Int _ -> "Int"
  | Float _ -> "Float"
  | Counts _ -> "Counts"
  | Dynamics _ -> "Dynamics"
  | Decisions _ -> "Decisions"
  | Verdicts _ -> "Verdicts"

let project what f : value outcome -> _ outcome = function
  | Failed fl -> Failed fl
  | Ok v -> (
      match f v with
      | Some x -> Ok x
      | None ->
          invalid_arg
            (Printf.sprintf "Engine.to_%s: value is %s" what (value_kind v)))

let to_int o = project "int" (function Int n -> Some n | _ -> None) o
let to_float o = project "float" (function Float x -> Some x | _ -> None) o
let to_counts o = project "counts" (function Counts (a, b, c) -> Some (a, b, c) | _ -> None) o

let to_dynamics o =
  project "dynamics" (function Dynamics d -> Some d | _ -> None) o

let to_decisions o =
  project "decisions" (function Decisions d -> Some d | _ -> None) o

let to_verdicts o =
  project "verdicts" (function Verdicts v -> Some v | _ -> None) o

(* ------------------------------------------------------------------ *)

module Stats = struct
  type t = {
    jobs : int;  (** pool size of the session *)
    lowerings : int;  (** source programs compiled to IR *)
    preparations : int;  (** pipelines actually run (not cache hits) *)
    simulations : int;  (** schedule+simulate runs actually performed *)
    traces : int;  (** trace nodes computed: one per distinct program *)
    static_runs : int;  (** static disambiguations run *)
    profiles : int;  (** profiling runs *)
    spd_runs : int;  (** SpD heuristic runs *)
    disk_hits : int;  (** results served from the on-disk cache *)
    disk_misses : int;  (** on-disk lookups that fell through *)
    disk_evictions : int;  (** corrupt on-disk entries evicted and recomputed *)
    cell_retries : int;  (** failed attempts that were retried *)
    cell_failures : int;  (** cells that exhausted their attempts *)
    stage_seconds : (Pipeline.stage * float) list;
        (** cumulative wall clock per pipeline stage, across all domains *)
  }

  (* Sorted [key=value] rendering.  [jobs] is deliberately excluded:
     every other counter is a function of the requested grid alone, so
     the rendered line is bit-identical across job counts (renderers
     that want the pool size print {!t.jobs} themselves). *)
  let to_alist t =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      [
        ("cell_failures", t.cell_failures);
        ("cell_retries", t.cell_retries);
        ("disk_evictions", t.disk_evictions);
        ("disk_hits", t.disk_hits);
        ("disk_misses", t.disk_misses);
        ("lowerings", t.lowerings);
        ("preparations", t.preparations);
        ("profiles", t.profiles);
        ("simulations", t.simulations);
        ("spd_runs", t.spd_runs);
        ("static_runs", t.static_runs);
        ("traces", t.traces);
      ]

  let pp ppf t =
    Fmt.pf ppf "%a"
      Fmt.(list ~sep:(any "; ") (pair ~sep:(any "=") string int))
      (to_alist t)
end

(* ------------------------------------------------------------------ *)

module Session = struct
  (* The internal memo key: cell coordinates, the program variant and
     the per-request budget.  [spd_params] is canonical (see
     {!Pipeline.Config.canonical_params}) and [None] for every kind but
     SPEC, the one pipeline it affects.  Budgeted queries memoize under
     their own cells; the common unbudgeted case is [q_fuel = None;
     q_deadline = None]. *)
  type key = {
    bench : string;
    latency : int;
    kind : Pipeline.kind;
    graft : bool;
    spd_params : Spd_core.Heuristic.params option;
    q_fuel : int option;
    q_deadline : float option;
  }

  (* Stage-node keys.  A node is keyed by exactly its inputs: the NAIVE
     and STATIC programs by (bench, graft); the profiles also by the
     request budget, so a starved budget fails its own node and never a
     shared one; a trace by the digest of the program's interpreted
     content and the effective budget. *)
  type front = string * bool
  type sim_key = front * int option * float option
  type trace_key = Digest.t * int option * float option

  (* every on-disk entry is one of these, Marshal'd; constructor names
     are irrelevant to Marshal (tags are positional) but their order is
     part of the on-disk format *)
  type disk_value =
    | D_cycles of int
    | D_summary of { code_size : int; counts : int * int * int }
    | D_dynamics of Pipeline.dynamics
    | D_decisions of Spd_core.Heuristic.decision list
    | D_verdicts of Spd_validate.Validate.report list

  type t = {
    jobs : int;
    retries : int;  (* attempts per cell before recording a failure *)
    deadline : float option;  (* per-cell wall-clock budget, seconds *)
    faults : Faults.t;
    config : Pipeline.Config.t;  (* user config, timer replaced by ours *)
    cache_dir : string option;  (* None = on-disk cache disabled *)
    pool : Pool.t;
    lowered_memo : (string, Spd_ir.Prog.t) Memo.t;
    naive_memo : (front, Spd_ir.Prog.t) Memo.t;
    static_memo : (front, Spd_ir.Prog.t) Memo.t;
    trace_memo : (trace_key, string * Pipeline.trace) Memo.t;
        (* the content that claimed the digest, and its trace *)
    profile_memo : (sim_key * Pipeline.kind, Spd_sim.Profile.t) Memo.t;
        (* keyed by the profiled program: NAIVE or STATIC *)
    prep_memo : (key, Pipeline.prepared) Memo.t;
        (* latency 0 for every kind but SPEC: see [prepared_cell] *)
    cycles_memo :
      (key * Spd_machine.Descr.width * int option, int outcome) Memo.t;
        (* [Some window]: the hardware-window machine *)
    summary_memo : (key, (int * (int * int * int)) outcome) Memo.t;
    dynamics_memo : (key, Pipeline.dynamics outcome) Memo.t;
    decisions_memo : (key, Spd_core.Heuristic.decision list outcome) Memo.t;
    verdicts_memo : (key, Spd_validate.Validate.report list outcome) Memo.t;
    prepared_out_memo : (key, Pipeline.prepared outcome) Memo.t;
    trace_out_memo : (key, Pipeline.trace outcome) Memo.t;
    stats_mu : Mutex.t;
    mutable lowerings : int;
    mutable preparations : int;
    mutable simulations : int;
    mutable traces : int;
    mutable static_runs : int;
    mutable profiles : int;
    mutable spd_runs : int;
    mutable disk_hits : int;
    mutable disk_misses : int;
    mutable disk_evictions : int;
    mutable cell_retries : int;
    mutable cell_failures : int;
    mutable failures : failure list;
    stage_seconds : float array;  (* indexed by Pipeline.stage_index *)
  }

  let try_prepare_dir dir =
    try
      if Sys.file_exists dir then if Sys.is_directory dir then Some dir else None
      else begin Unix.mkdir dir 0o755; Some dir end
    with Unix.Unix_error _ | Sys_error _ -> None

  let create ?jobs ?(disk_cache = false) ?(cache_dir = "_spd_cache")
      ?(retries = 1) ?deadline ?fuel ?(faults = Faults.none)
      ?(config = Pipeline.Config.default) () =
    let jobs =
      match jobs with
      | Some j -> max 1 j
      | None -> Domain.recommended_domain_count ()
    in
    let stats_mu = Mutex.create () in
    let stage_seconds = Array.make (List.length Pipeline.stages) 0.0 in
    let user_timer = config.Pipeline.Config.timer in
    let timer stage dt =
      Mutex.lock stats_mu;
      let i = Pipeline.stage_index stage in
      stage_seconds.(i) <- stage_seconds.(i) +. dt;
      Mutex.unlock stats_mu;
      M.observe (List.assoc stage m_stage_seconds) dt;
      match user_timer with Some f -> f stage dt | None -> ()
    in
    (* the session's checker-raise fault fires ahead of any user hook *)
    let user_checker_fault = config.Pipeline.Config.checker_fault in
    let checker_fault () =
      Faults.checker_raise faults;
      match user_checker_fault with Some f -> f () | None -> ()
    in
    (* an armed fuel fault is the tightest budget; otherwise the session
       budget; otherwise whatever the user config says *)
    let fuel =
      match Faults.fuel faults with
      | Some _ as f -> f
      | None -> (
          match fuel with
          | Some _ -> fuel
          | None -> config.Pipeline.Config.fuel)
    in
    let deadline =
      match deadline with
      | Some _ -> deadline
      | None -> config.Pipeline.Config.deadline
    in
    {
      jobs;
      retries = max 1 retries;
      deadline;
      faults;
      config =
        { config with timer = Some timer; fuel; deadline;
          checker_fault = Some checker_fault };
      cache_dir = (if disk_cache then try_prepare_dir cache_dir else None);
      pool = Pool.create ~size:jobs;
      lowered_memo = Memo.create 16;
      naive_memo = Memo.create 32;
      static_memo = Memo.create 32;
      trace_memo = Memo.create 64;
      profile_memo = Memo.create 64;
      prep_memo = Memo.create 64;
      cycles_memo = Memo.create 256;
      summary_memo = Memo.create 64;
      dynamics_memo = Memo.create 64;
      decisions_memo = Memo.create 64;
      verdicts_memo = Memo.create 64;
      prepared_out_memo = Memo.create 16;
      trace_out_memo = Memo.create 16;
      stats_mu;
      lowerings = 0;
      preparations = 0;
      simulations = 0;
      traces = 0;
      static_runs = 0;
      profiles = 0;
      spd_runs = 0;
      disk_hits = 0;
      disk_misses = 0;
      disk_evictions = 0;
      cell_retries = 0;
      cell_failures = 0;
      failures = [];
      stage_seconds;
    }

  let close t = Pool.close t.pool
  let jobs t = t.jobs

  let bump t f =
    Mutex.lock t.stats_mu;
    f t;
    Mutex.unlock t.stats_mu

  let stats t : Stats.t =
    Mutex.lock t.stats_mu;
    let s =
      {
        Stats.jobs = t.jobs;
        lowerings = t.lowerings;
        preparations = t.preparations;
        simulations = t.simulations;
        traces = t.traces;
        static_runs = t.static_runs;
        profiles = t.profiles;
        spd_runs = t.spd_runs;
        disk_hits = t.disk_hits;
        disk_misses = t.disk_misses;
        disk_evictions = t.disk_evictions;
        cell_retries = t.cell_retries;
        cell_failures = t.cell_failures;
        stage_seconds =
          List.map
            (fun st -> (st, t.stage_seconds.(Pipeline.stage_index st)))
            Pipeline.stages;
      }
    in
    Mutex.unlock t.stats_mu;
    s

  let failures t =
    Mutex.lock t.stats_mu;
    let fs = t.failures in
    Mutex.unlock t.stats_mu;
    List.sort (fun a b -> compare a.key b.key) fs

  (* ---------------------------------------------------------------- *)
  (* The contained-failure cell runner: every grid-cell computation goes
     through [protected], which consults the armed faults, retries up to
     [t.retries] attempts (stopping early once the per-cell wall-clock
     deadline has passed), and converts the final exception into a
     recorded [Failed] outcome instead of letting it tear down the
     batch.  [Sys.Break] (user interrupt) is never contained. *)

  let protected t ~deadline ~key (f : unit -> 'a) : 'a outcome =
    let t0 = Clock.now () in
    Log.debug "engine.cell.start" [ ("key", Spd_telemetry.Json.String key) ];
    (* one trace span per attempt, so retries show up individually *)
    let f () = Spd_telemetry.Trace.with_span ~name:("cell:" ^ key) f in
    let rec attempt n =
      match
        Faults.cell_raise t.faults ~key;
        f ()
      with
      | v ->
          Log.debug "engine.cell.finish"
            [
              ("key", Spd_telemetry.Json.String key);
              ("attempts", Spd_telemetry.Json.Int n);
              ("seconds", Spd_telemetry.Json.Float (Clock.now () -. t0));
            ];
          Ok v
      | exception Sys.Break -> raise Sys.Break
      | exception e ->
          let backtrace = Printexc.get_raw_backtrace () in
          let elapsed = Clock.now () -. t0 in
          let out_of_time =
            match deadline with Some d -> elapsed >= d | None -> false
          in
          if n < t.retries && not out_of_time then begin
            bump t (fun t -> t.cell_retries <- t.cell_retries + 1);
            M.incr m_cell_retries;
            Log.info "engine.cell.retry"
              [
                ("key", Spd_telemetry.Json.String key);
                ("attempt", Spd_telemetry.Json.Int n);
                ("error", Spd_telemetry.Json.String (Printexc.to_string e));
              ];
            attempt (n + 1)
          end
          else begin
            let f = { key; exn = e; backtrace; attempts = n; elapsed } in
            bump t (fun t ->
                t.cell_failures <- t.cell_failures + 1;
                t.failures <- f :: t.failures);
            M.incr m_cell_failures;
            Log.warn "engine.cell.fail"
              [
                ("key", Spd_telemetry.Json.String key);
                ("attempts", Spd_telemetry.Json.Int n);
                ("seconds", Spd_telemetry.Json.Float elapsed);
                ("error", Spd_telemetry.Json.String (Printexc.to_string e));
              ];
            Failed f
          end
    in
    attempt 1

  (* ---------------------------------------------------------------- *)
  (* On-disk cache.  Keys are the MD5 of a canonical payload string;
     writes go through a unique temporary file and an atomic rename, so
     concurrent domains (or processes) never observe torn entries.

     The atomic rename cannot protect an entry *after* it landed —
     truncation, bit rot, a format change.  Every entry therefore
     carries a one-line header [spd-cache <version> <md5-of-body>
     <body-length>] ahead of the Marshal'd body; a reader that finds a
     version mismatch, a short body, a checksum mismatch or an
     undecodable payload logs the reason, evicts the entry and lets the
     caller recompute — the cache heals itself instead of crashing. *)

  let write_seq = Atomic.make 0

  let disk_path dir payload =
    Filename.concat dir (Digest.to_hex (Digest.string payload) ^ ".cache")

  let encode_entry (v : disk_value) =
    let body = Marshal.to_string v [] in
    Printf.sprintf "spd-cache %s %s %d\n%s" cache_version
      (Digest.to_hex (Digest.string body))
      (String.length body) body

  let decode_entry s : (disk_value, string) result =
    match String.index_opt s '\n' with
    | None -> Error "truncated header"
    | Some i -> (
        let header = String.sub s 0 i in
        let body = String.sub s (i + 1) (String.length s - i - 1) in
        match String.split_on_char ' ' header with
        | [ "spd-cache"; version; digest; length ] ->
            if version <> cache_version then
              Error (Printf.sprintf "version %s, want %s" version cache_version)
            else if int_of_string_opt length <> Some (String.length body)
            then Error "body length mismatch (truncated entry)"
            else if Digest.to_hex (Digest.string body) <> digest then
              Error "checksum mismatch (corrupt entry)"
            else (
              match (Marshal.from_string body 0 : disk_value) with
              | v -> Ok v
              | exception _ -> Error "undecodable payload")
        | _ -> Error "malformed header")

  (* deterministic corruption for the [cache-corrupt] fault: flip a bit
     in the middle of the entry so the checksum (or header) breaks *)
  let corrupt_bytes s =
    if String.length s = 0 then s
    else begin
      let b = Bytes.of_string s in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      Bytes.to_string b
    end

  let evict t path reason =
    Log.warn "engine.cache.evict"
      [
        ("entry", Spd_telemetry.Json.String (Filename.basename path));
        ("reason", Spd_telemetry.Json.String reason);
      ];
    (try Sys.remove path with Sys_error _ -> ());
    bump t (fun t ->
        t.disk_evictions <- t.disk_evictions + 1;
        t.disk_misses <- t.disk_misses + 1);
    M.incr m_cache_evictions;
    M.incr m_cache_misses;
    M.incr m_cache_evict;
    M.incr m_cache_miss

  let disk_read t payload : disk_value option =
    match t.cache_dir with
    | None -> None
    | Some dir -> (
        let path = disk_path dir payload in
        match In_channel.with_open_bin path In_channel.input_all with
        | exception Sys_error _ ->
            bump t (fun t -> t.disk_misses <- t.disk_misses + 1);
            M.incr m_cache_misses;
            M.incr m_cache_miss;
            None
        | s -> (
            let s =
              if Faults.corrupt_cache_read t.faults then corrupt_bytes s
              else s
            in
            match decode_entry s with
            | Ok v ->
                bump t (fun t -> t.disk_hits <- t.disk_hits + 1);
                M.incr m_cache_hits;
                M.incr m_cache_hit;
                Some v
            | Error reason -> evict t path reason; None))

  let disk_write t payload (v : disk_value) =
    match t.cache_dir with
    | None -> ()
    | Some dir -> (
        let path = disk_path dir payload in
        let tmp =
          Printf.sprintf "%s.%d.%d.%d.tmp" path (Unix.getpid ())
            (Domain.self () :> int)
            (Atomic.fetch_and_add write_seq 1)
        in
        try
          Out_channel.with_open_bin tmp (fun oc ->
              Out_channel.output_string oc (encode_entry v));
          Sys.rename tmp path
        with Sys_error _ | Unix.Unix_error _ -> (
          try Sys.remove tmp with Sys_error _ -> ()))

  (* The full content address of a grid cell: cache format version,
     digest of the workload source, pipeline kind and configuration
     fingerprint (which includes the memory latency and the program
     variant).  Budgets are deliberately excluded, like they are from
     the fingerprint: a budget can only turn a result into a failure,
     never change a successfully computed value, so budgeted successes
     share their disk entry with the unbudgeted cell.  A payload is a
     function of the source and the cell's configuration alone, so a
     warm session reads its entries without lowering anything. *)
  let cell_payload t (k : key) =
    let w = W.Registry.by_name k.bench in
    String.concat "|"
      [
        "spd"; cache_version;
        Digest.to_hex (Digest.string w.source);
        Pipeline.name k.kind;
        Pipeline.Config.fingerprint
          {
            t.config with
            mem_latency = k.latency;
            graft = k.graft;
            spd_params = k.spd_params;
          };
      ]

  (* The human-readable cell key: what [cell-raise] faults match against
     and what the failure appendix prints.  The variant follows the
     kind, so [bench/lat/SPEC+graft] selects the grafted cells alone. *)
  let cell_key (k : key) =
    Printf.sprintf "%s/%d/%s%s" k.bench k.latency (Pipeline.name k.kind)
      (variant_tag ~graft:k.graft ~spd_params:k.spd_params)

  (* appended at the END of the full metric key, so [cell-raise]
     prefixes over unbudgeted keys keep matching exactly as before *)
  let budget_tag (k : key) =
    (match k.q_fuel with
    | None -> ""
    | Some n -> Printf.sprintf "+fuel=%d" n)
    ^
    match k.q_deadline with
    | None -> ""
    | Some d -> Printf.sprintf "+deadline=%g" d

  let opt_min_int a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (min a b)

  let opt_min_float a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (Float.min a b)

  (* the pipeline configuration of one cell: per-cell memory latency and
     program variant, session budgets tightened by the request's
     quotas *)
  let config_for t (k : key) =
    {
      t.config with
      Pipeline.Config.mem_latency = k.latency;
      graft = k.graft;
      spd_params = k.spd_params;
      fuel = opt_min_int t.config.Pipeline.Config.fuel k.q_fuel;
      deadline =
        opt_min_float t.config.Pipeline.Config.deadline k.q_deadline;
    }

  let eff_deadline t (k : key) = opt_min_float t.deadline k.q_deadline

  (* ---------------------------------------------------------------- *)
  (* The stage DAG.  Every node is a promise in its own memo table,
     computed once per session by whichever domain asks first:

       lowered(bench)
         -> NAIVE(bench, graft)                    cleanup
              -> STATIC(bench, graft)               static
                   -> P(STATIC)(bench, graft, budget)  profile
              -> P(NAIVE)(bench, graft, budget)     profile
       pipelines: NAIVE, STATIC, PERFECT(bench, graft, budget)
                  SPEC(bench, graft, latency, spd_params, budget)
       trace(content digest, budget)               simulate
              of any pipeline's program: its observation (every check)
              and outcome histogram (every cycle count)
       cells:     cycles = schedule + charge of the trace,
                  hw-cycles, summaries, ledgers

     Only SPEC and the cells depend on the memory latency. *)

  let lowered t bench =
    Memo.get t.lowered_memo bench (fun () ->
        bump t (fun t -> t.lowerings <- t.lowerings + 1);
        M.incr m_lowerings;
        Pipeline.time t.config Pipeline.Lower (fun () ->
            Spd_lang.Lower.compile (W.Registry.by_name bench).source))

  (* The trace node of a program.  Programs whose interpreted content
     is equal have equal traces (STATIC and PERFECT change only arcs, so
     they share NAIVE's; equal SPEC programs across ablation points
     share one).  The node is keyed by the content's digest, and a hit
     is confirmed by comparing the contents byte for byte: a program
     whose digest collides with a different one is interpreted on its
     own. *)
  let trace_node t (config : Pipeline.Config.t) prog : Pipeline.trace =
    let content = Spd_sim.Interp.content prog in
    let compute () =
      bump t (fun t -> t.traces <- t.traces + 1);
      M.incr m_traces;
      Pipeline.trace config prog
    in
    let owner, trace =
      Memo.get t.trace_memo
        (Digest.string content, config.fuel, config.deadline)
        (fun () -> (content, compute ()))
    in
    if String.equal owner content then trace else compute ()

  let nodes t (k : key) : Pipeline.nodes =
    let config = config_for t k in
    let front = (k.bench, k.graft) in
    let sim = (front, k.q_fuel, k.q_deadline) in
    let naive () =
      Memo.get t.naive_memo front (fun () ->
          Pipeline.clean config (lowered t k.bench))
    in
    let static () =
      Memo.get t.static_memo front (fun () ->
          bump t (fun t -> t.static_runs <- t.static_runs + 1);
          M.incr m_static_runs;
          Pipeline.disambiguate config (naive ()))
    in
    let profile_of kind prog () =
      Memo.get t.profile_memo (sim, kind) (fun () ->
          bump t (fun t -> t.profiles <- t.profiles + 1);
          M.incr m_profiles;
          Pipeline.profile config (prog ()))
    in
    {
      Pipeline.naive;
      static;
      static_profile = profile_of Pipeline.Static static;
      naive_profile = profile_of Pipeline.Naive naive;
      trace = trace_node t config;
    }

  (* Run the tail of the chain for [k] over the shared nodes. *)
  let assemble t (k : key) config =
    bump t (fun t ->
        t.preparations <- t.preparations + 1;
        if k.kind = Pipeline.Spec then t.spd_runs <- t.spd_runs + 1);
    M.incr m_preparations;
    if k.kind = Pipeline.Spec then M.incr m_spd_runs;
    Pipeline.assemble config k.kind (nodes t k)

  (* A pipeline node.  NAIVE, STATIC and PERFECT do not depend on the
     memory latency, so they are memoized under latency 0 and every
     latency's cells share them; the returned record is a view carrying
     the cell's own latency and configuration, which is all
     {!Pipeline.cycles} reads of them. *)
  let prepared_cell t (k : key) =
    let node = if k.kind = Pipeline.Spec then k else { k with latency = 0 } in
    let p =
      Memo.get t.prep_memo node (fun () -> assemble t k (config_for t k))
    in
    { p with Pipeline.mem_latency = k.latency; config = config_for t k }

  (* The in-memory accessors: a node of the paper grid's variant,
     computed under [protected] with the node's key, so a failing node
     is recorded (once) like any cell failure and surfaces as
     [Cell_failed]. *)
  let accessor t memo ~what ~bench ~latency kind f =
    let k =
      { bench; latency; kind; graft = false; spd_params = None;
        q_fuel = None; q_deadline = None }
    in
    (* an unknown workload is the caller's error, not a node failure *)
    ignore (W.Registry.by_name bench);
    match
      Memo.get memo k (fun () ->
          protected t ~deadline:(eff_deadline t k)
            ~key:(cell_key k ^ "/" ^ what)
            (fun () -> f k))
    with
    | Ok v -> v
    | Failed f -> raise (Cell_failed f)

  let prepared t ~bench ~latency kind =
    accessor t t.prepared_out_memo ~what:"prepared" ~bench ~latency kind
      (prepared_cell t)

  let trace t ~bench ~latency kind =
    accessor t t.trace_out_memo ~what:"trace" ~bench ~latency kind (fun k ->
        (prepared_cell t k).Pipeline.trace ())

  (* cycle count of a cell on [width] units; [window] selects the
     machine whose hardware reorders memory references within that many
     references (section 2.3) *)
  let cycles_cell t (k : key) ~width ~window =
    Memo.get t.cycles_memo (k, width, window) (fun () ->
        let metric =
          match window with
          | None -> "cycles/" ^ width_tag width
          | Some w -> Printf.sprintf "hw-cycles/w%d/%s" w (width_tag width)
        in
        protected t ~deadline:(eff_deadline t k)
          ~key:(cell_key k ^ "/" ^ metric ^ budget_tag k)
          (fun () ->
            (* an armed cycles-inflate fault perturbs what we report but
               never what we persist, so the cache stays truthful and
               the slowdown applies to cache hits too *)
            let inflate = Faults.inflate_cycles t.faults in
            let payload =
              cell_payload t k ^ "|"
              ^
              match window with
              | None -> "cycles:" ^ width_tag width
              | Some w -> Printf.sprintf "hw-cycles:w%d:%s" w (width_tag width)
            in
            match disk_read t payload with
            | Some (D_cycles n) -> inflate n
            | _ ->
                bump t (fun t -> t.simulations <- t.simulations + 1);
                M.incr m_simulations;
                let p = prepared_cell t k in
                let n =
                  match window with
                  | None -> Pipeline.cycles p ~width
                  | Some window -> Pipeline.hw_cycles p ~window ~width
                in
                disk_write t payload (D_cycles n);
                inflate n))

  (* code size and Table 6-3 counts of a cell, from one preparation *)
  let summary_cell t (k : key) =
    Memo.get t.summary_memo k (fun () ->
        protected t ~deadline:(eff_deadline t k)
          ~key:(cell_key k ^ "/summary" ^ budget_tag k)
          (fun () ->
            let payload = cell_payload t k ^ "|summary" in
            match disk_read t payload with
            | Some (D_summary s) -> (s.code_size, s.counts)
            | _ ->
                let p = prepared_cell t k in
                let code_size = Pipeline.code_size p in
                let counts =
                  Spd_core.Heuristic.count_by_kind p.applications
                in
                disk_write t payload (D_summary { code_size; counts });
                (code_size, counts)))

  (* run-time dynamics of the SPEC pipeline's SpD applications *)
  let dynamics_cell t (k : key) =
    Memo.get t.dynamics_memo k (fun () ->
        protected t ~deadline:(eff_deadline t k)
          ~key:(cell_key k ^ "/dynamics" ^ budget_tag k)
          (fun () ->
            let payload = cell_payload t k ^ "|dynamics" in
            match disk_read t payload with
            | Some (D_dynamics d) -> d
            | _ ->
                bump t (fun t -> t.simulations <- t.simulations + 1);
                M.incr m_simulations;
                let d = Pipeline.dynamics (prepared_cell t k) in
                disk_write t payload (D_dynamics d);
                d))

  (* the heuristic's decision ledger of a cell; a pure function of the
     preparation, so no simulation is charged *)
  let decisions_cell t (k : key) =
    Memo.get t.decisions_memo k (fun () ->
        protected t ~deadline:(eff_deadline t k)
          ~key:(cell_key k ^ "/decisions" ^ budget_tag k)
          (fun () ->
            let payload = cell_payload t k ^ "|decisions" in
            match disk_read t payload with
            | Some (D_decisions ds) -> ds
            | _ ->
                let p = prepared_cell t k in
                disk_write t payload (D_decisions p.Pipeline.decisions);
                p.Pipeline.decisions))

  (* the translation-validation ledger of a cell's SPEC applications;
     its own heuristic run under [validate = true], over the shared
     STATIC, profile and trace nodes.  Validation is excluded from
     the config fingerprint (it never changes the prepared program), so
     the ledger is addressed by the shared cell payload plus its own
     suffix; the run is charged separately from [prepared_cell]'s,
     because a raising verdict must fail only this cell. *)
  let verdicts_cell t (k : key) =
    Memo.get t.verdicts_memo k (fun () ->
        protected t ~deadline:(eff_deadline t k)
          ~key:(cell_key k ^ "/verdicts" ^ budget_tag k)
          (fun () ->
            let payload = cell_payload t k ^ "|verdicts" in
            match disk_read t payload with
            | Some (D_verdicts vs) -> vs
            | _ ->
                let p =
                  assemble t k
                    { (config_for t k) with Pipeline.Config.validate = true }
                in
                disk_write t payload (D_verdicts p.Pipeline.verdicts);
                p.Pipeline.verdicts))

  let map_outcome f = function Ok v -> Ok (f v) | Failed f -> Failed f

  let pair_outcome a b =
    match (a, b) with
    | Ok a, Ok b -> Ok (a, b)
    | Failed f, _ | _, Failed f -> Failed f

  (* ---------------------------------------------------------------- *)
  (* The one request path.  Everything above is addressed by [Query.t]:
     derived artefacts (speedups, code growth) fan out to their operand
     cells under the same budget, and all sharing — concurrent
     deduplication included — falls out of the per-cell promises. *)

  let submit t (q : Query.t) : value outcome =
    M.incr m_queries;
    let k kind =
      {
        bench = q.Query.bench;
        latency = q.Query.latency;
        kind;
        graft = q.Query.graft;
        spd_params =
          (if kind = Pipeline.Spec then q.Query.spd_params else None);
        q_fuel = q.Query.fuel;
        q_deadline = q.Query.deadline;
      }
    in
    let cycles kind ~width = cycles_cell t (k kind) ~width ~window:None in
    match q.Query.artefact with
    | Query.Cycles { kind; width } ->
        map_outcome (fun n -> Int n) (cycles kind ~width)
    | Query.Hw_cycles { window; width } ->
        map_outcome
          (fun n -> Int n)
          (cycles_cell t (k Pipeline.Static) ~width ~window:(Some window))
    | Query.Code_size kind ->
        map_outcome (fun (code_size, _) -> Int code_size)
          (summary_cell t (k kind))
    | Query.Spd_counts ->
        map_outcome
          (fun (_, (raw, war, waw)) -> Counts (raw, war, waw))
          (summary_cell t (k Pipeline.Spec))
    | Query.Spd_dynamics ->
        map_outcome (fun d -> Dynamics d) (dynamics_cell t (k Pipeline.Spec))
    | Query.Spd_decisions ->
        map_outcome
          (fun ds -> Decisions ds)
          (decisions_cell t (k Pipeline.Spec))
    | Query.Spd_verdicts ->
        map_outcome
          (fun vs -> Verdicts vs)
          (verdicts_cell t (k Pipeline.Spec))
    | Query.Speedup_over_naive { kind; width } ->
        map_outcome
          (fun (base, this) -> Float (Pipeline.speedup ~base ~this))
          (pair_outcome (cycles Pipeline.Naive ~width) (cycles kind ~width))
    | Query.Spec_over_static { width } ->
        map_outcome
          (fun (base, this) -> Float (Pipeline.speedup ~base ~this))
          (pair_outcome
             (cycles Pipeline.Static ~width)
             (cycles Pipeline.Spec ~width))
    | Query.Code_growth ->
        map_outcome
          (fun ((base, _), (spec, _)) ->
            Float ((float_of_int spec /. float_of_int base) -. 1.0))
          (pair_outcome
             (summary_cell t (k Pipeline.Static))
             (summary_cell t (k Pipeline.Spec)))

  (* ---------------------------------------------------------------- *)

  let parallel_map t f xs =
    if t.jobs <= 1 then List.map f xs else Pool.map t.pool f xs

  let parallel_iter t f xs = ignore (parallel_map t (fun x -> f x; ()) xs)
end
