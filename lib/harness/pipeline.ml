(** The four disambiguation pipelines of Table 6-4.

    {v
    source --lower--> trees --all-pairs arcs-->            NAIVE
    NAIVE  --GCD/Banerjee (affine forms)-->                STATIC
    STATIC --profiled path probabilities--SpD heuristic--> SPEC
    NAIVE  --profiled alias counts, drop superfluous-->    PERFECT
    v}

    Every prepared program is validated to produce the same observable
    behaviour (return value and printed output) as the NAIVE baseline. *)

open Spd_ir
module Memarcs = Spd_analysis.Memarcs
module Static = Spd_disambig.Static_disambig
module Heuristic = Spd_core.Heuristic

type kind = Naive | Static | Spec | Perfect

let all = [ Naive; Static; Spec; Perfect ]

let name = function
  | Naive -> "NAIVE"
  | Static -> "STATIC"
  | Spec -> "SPEC"
  | Perfect -> "PERFECT"

let pp ppf k = Fmt.string ppf (name k)

(* ------------------------------------------------------------------ *)
(* Pipeline stages, for wall-clock instrumentation. *)

type stage =
  | Lower
  | Cleanup
  | Disambig
  | Profile
  | Spd
  | Validate
  | Check
  | Schedule
  | Simulate

let stages =
  [ Lower; Cleanup; Disambig; Profile; Spd; Validate; Check; Schedule;
    Simulate ]

let stage_name = function
  | Lower -> "lower"
  | Cleanup -> "cleanup"
  | Disambig -> "static"
  | Profile -> "profile"
  | Spd -> "spd"
  | Validate -> "validate"
  | Check -> "check"
  | Schedule -> "schedule"
  | Simulate -> "simulate"

let stage_index = function
  | Lower -> 0
  | Cleanup -> 1
  | Disambig -> 2
  | Profile -> 3
  | Spd -> 4
  | Validate -> 5
  | Check -> 6
  | Schedule -> 7
  | Simulate -> 8

(* ------------------------------------------------------------------ *)

module Config = struct
  type t = {
    check : bool;  (** verify observable equivalence with NAIVE *)
    validate : bool;
        (** translation-validate every SpD application symbolically: a
            [Refuted] verdict is a hard error, and the prepared record
            carries the full verdict ledger *)
    spd_params : Heuristic.params option;
        (** guidance-heuristic knobs (default: {!Heuristic.default_params}) *)
    graft : bool;  (** unroll loop trees before disambiguation (section 7) *)
    mem_latency : int;  (** memory latency in cycles (paper: 2 and 6) *)
    fuel : int option;
        (** traversal budget for every simulator run (profiling, checking,
            timing); [None] = the simulator's default *)
    deadline : float option;
        (** wall-clock budget in seconds for every simulator run *)
    timer : (stage -> float -> unit) option;
        (** called with the elapsed seconds of every instrumented stage *)
    checker_fault : (unit -> unit) option;
        (** consulted at every per-application checker invocation; the
            engine wires the session's [checker-raise] fault here *)
  }

  let default =
    { check = true; validate = false; spd_params = None; graft = false;
      mem_latency = 2; fuel = None; deadline = None; timer = None;
      checker_fault = None }

  let v ?(check = true) ?(validate = false) ?spd_params ?(graft = false)
      ?fuel ?deadline ?timer ?checker_fault ?(mem_latency = 2) () =
    { check; validate; spd_params; graft; mem_latency; fuel; deadline;
      timer; checker_fault }

  (* the heuristic prepares the same program under [Some default_params]
     as under [None], so both spell "default" *)
  let canonical_params = function
    | Some p when p = Heuristic.default_params -> None
    | params -> params

  (* The canonical encoding of the semantic fields (everything except
     [timer], [checker_fault], [fuel] and [deadline] — the budgets can
     only turn a result into a failure, never change a successfully
     computed value, so they do not participate in cache addressing).
     [validate] is likewise excluded: validation never changes the
     prepared program, it can only fail the preparation, so validated
     and unvalidated cells share their cached numbers; the verdict
     ledger itself is cached under its own payload suffix. *)
  let fingerprint t =
    let params =
      match canonical_params t.spd_params with
      | None -> "default"
      | Some (p : Heuristic.params) ->
          Printf.sprintf "me=%h,mg=%h,ma=%d" p.max_expansion p.min_gain
            p.max_applications
    in
    Printf.sprintf "check=%b;graft=%b;lat=%d;params=%s" t.check t.graft
      t.mem_latency params
end

(* Every instrumented stage is also a trace span, so a --trace run shows
   the stage breakdown nested under its grid cell's span.  A stage can
   run inside another (each SpD application's validation runs inside
   the heuristic's stage); the timer receives a stage's self time — its
   wall clock minus that of the stages nested in it, tracked per domain
   — so the per-stage totals add up without counting anything twice. *)
let nested_seconds : float ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0.0)

let time (config : Config.t) stage f =
  Spd_telemetry.Trace.with_span ~name:("stage:" ^ stage_name stage)
    (fun () ->
      match config.timer with
      | None -> f ()
      | Some cb ->
          let nested = Domain.DLS.get nested_seconds in
          let outer = !nested in
          nested := 0.0;
          let t0 = Spd_telemetry.Clock.now () in
          let finish () =
            let dt = Spd_telemetry.Clock.now () -. t0 in
            let inner = !nested in
            nested := outer +. dt;
            dt -. inner
          in
          match f () with
          | r ->
              cb stage (finish ());
              r
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (finish ());
              Printexc.raise_with_backtrace e bt)

(* One interpretation of a program: everything the cycle count on any
   machine, and the behaviour check, need from running it. *)
type observation = Spd_ir.Value.t * Spd_ir.Value.t list

type trace = {
  observation : observation;  (** return value and printed output *)
  outcomes : Spd_sim.Outcomes.t;  (** the traversal-outcome histogram *)
  traversals : int;
}

type prepared = {
  kind : kind;
  config : Config.t;
  mem_latency : int;
  prog : Prog.t;
  applications : Heuristic.application list;
      (** SpD applications performed (SPEC only) *)
  decisions : Heuristic.decision list;
      (** the heuristic's full decision ledger (SPEC only) *)
  verdicts : Spd_validate.Validate.report list;
      (** per-application translation-validation ledger, in application
          order (SPEC with [config.validate] only) *)
  trace : unit -> trace;  (** the program's interpretation *)
}

(* ------------------------------------------------------------------ *)
(* Decision-ledger counters, registered when the module is loaded so a
   metrics snapshot carries them whether or not a SPEC pipeline has been
   prepared yet. *)

let rejection_labels =
  [
    "not-critical"; "not-applicable.arc-not-ambiguous";
    "not-applicable.intervening-reference";
    "not-applicable.address-unavailable"; "below-min-gain";
    "max-applications"; "max-expansion";
  ]

let m_candidates, m_applied, m_rejected =
  let c name = Spd_telemetry.Metrics.counter ("spd.heuristic." ^ name) in
  ( c "candidates",
    c "applied",
    List.map (fun r -> (r, c ("rejected." ^ r))) rejection_labels )

let m_proved, m_refuted, m_unknown =
  let c name = Spd_telemetry.Metrics.counter ("spd.validate." ^ name) in
  (c "proved", c "refuted", c "unknown")

let observe_verdict (v : Spd_validate.Verdict.t) =
  Spd_telemetry.Metrics.incr
    (match v with
    | Spd_validate.Verdict.Proved -> m_proved
    | Spd_validate.Verdict.Refuted _ -> m_refuted
    | Spd_validate.Verdict.Unknown _ -> m_unknown)

(* the counter suffix for a rejection (metric names avoid ':') *)
let rejection_label : Heuristic.verdict -> string option =
  let module T = Spd_core.Transform in
  function
  | Heuristic.Applied -> None
  | Heuristic.Rejected_not_critical -> Some "not-critical"
  | Heuristic.Rejected_not_applicable T.Arc_not_ambiguous ->
      Some "not-applicable.arc-not-ambiguous"
  | Heuristic.Rejected_not_applicable T.Intervening_reference ->
      Some "not-applicable.intervening-reference"
  | Heuristic.Rejected_not_applicable T.Address_unavailable ->
      Some "not-applicable.address-unavailable"
  | Heuristic.Rejected_below_min_gain -> Some "below-min-gain"
  | Heuristic.Rejected_max_applications -> Some "max-applications"
  | Heuristic.Rejected_max_expansion -> Some "max-expansion"

let observe_decisions (ds : Heuristic.decision list) =
  Spd_telemetry.Metrics.incr ~by:(List.length ds) m_candidates;
  List.iter
    (fun (d : Heuristic.decision) ->
      match rejection_label d.verdict with
      | None -> Spd_telemetry.Metrics.incr m_applied
      | Some r -> Spd_telemetry.Metrics.incr (List.assoc r m_rejected))
    ds

(** Profile a program: run it once with instrumentation. *)
let profile_of ?fuel ?deadline (prog : Prog.t) : Spd_sim.Profile.t =
  let profile = Spd_sim.Profile.create () in
  ignore (Spd_sim.Interp.run ~profile ?fuel ?deadline prog);
  profile

exception Behaviour_mismatch of string

(** Raised by a [config.validate] preparation when the symbolic
    equivalence checker refutes an SpD application; the payload names
    the application and renders the concrete counterexample. *)
exception Validation_failed of string

let () =
  Printexc.register_printer (function
    | Validation_failed msg -> Some ("Validation_failed: " ^ msg)
    | _ -> None)

(* The per-application transform checker installed when [config.check]
   holds: every accepted SpD application must leave a structurally valid
   tree that did not shrink (SpD only adds compensation code).  The
   whole-program observable-equivalence check below catches semantic
   drift; this one pins the failure to the exact application. *)
let transform_checker ~func:_ ~(before : Spd_ir.Tree.t)
    (app : Heuristic.application) (after : Spd_ir.Tree.t) =
  Spd_ir.Tree.validate after;
  if Spd_ir.Tree.size after < Spd_ir.Tree.size before then
    raise
      (Behaviour_mismatch
         (Fmt.str "SpD application on tree %d arc #%d->#%d shrank the tree"
            app.tree_id (fst app.arc) (snd app.arc)))

(* ------------------------------------------------------------------ *)
(* Stage functions.  Each is one node of the chain

     lowered --cleanup--> NAIVE --+--static--> STATIC --profile--> P(static)
                                  +--profile--> P(naive)
     any program --interpret--> trace

   plus the per-kind tail in [assemble].  [config.graft],
   [config.fuel]/[config.deadline] and [config.timer] are the only
   fields they read. *)

(** Scalar cleanup every pipeline gets — store-to-load forwarding and
    redundant-load elimination, as in the paper's optimizing compiler —
    then optional tree grafting (paper section 7: unroll loop trees to
    expose more ambiguous pairs to SpD), then the all-pairs memory arcs:
    the NAIVE program. *)
let clean (config : Config.t) (lowered : Prog.t) : Prog.t =
  time config Cleanup (fun () ->
      let cleaned = Spd_analysis.Forwarding.run lowered in
      let cleaned =
        if config.graft then Spd_analysis.Unroll.run cleaned else cleaned
      in
      Memarcs.annotate cleaned)

(** Interpret a program once: its observable behaviour (the ground truth
    every check compares) and its outcome histogram (what every cycle
    count charges). *)
let trace (config : Config.t) (prog : Prog.t) : trace =
  time config Simulate (fun () ->
      let r =
        Spd_sim.Interp.run ?fuel:config.fuel ?deadline:config.deadline prog
      in
      {
        observation = (r.ret, r.output);
        outcomes = r.outcomes;
        traversals = r.traversals;
      })

(** GCD/Banerjee static disambiguation of the NAIVE program. *)
let disambiguate (config : Config.t) (naive : Prog.t) : Prog.t =
  time config Disambig (fun () -> Static.run naive)

let profile (config : Config.t) (prog : Prog.t) : Spd_sim.Profile.t =
  time config Profile (fun () ->
      profile_of ?fuel:config.fuel ?deadline:config.deadline prog)

(* The SpD heuristic over the STATIC program, with the composed
   per-application checker: the armed checker fault (if any), the
   structural checks, then the symbolic equivalence proof.
   [Heuristic.run] calls it sequentially within this run, so a plain
   accumulator is safe. *)
let speculate (config : Config.t) ~profile static =
  let { Config.check; validate; spd_params; mem_latency; checker_fault; _ } =
    config
  in
  let acc = ref [] in
  let fire_fault () = match checker_fault with Some f -> f () | None -> () in
  let composed ~func ~before app after =
    fire_fault ();
    if check then transform_checker ~func ~before app after;
    if validate then begin
      let r =
        time config Validate (fun () ->
            Spd_validate.Validate.check_application ~func ~before app after)
      in
      observe_verdict r.Spd_validate.Validate.verdict;
      (match r.Spd_validate.Validate.verdict with
      | Spd_validate.Verdict.Refuted cx ->
          raise
            (Validation_failed
               (Fmt.str
                  "SpD application on tree %d arc #%d->#%d refuted: %s (seed \
                   %d)"
                  app.Heuristic.tree_id (fst app.Heuristic.arc)
                  (snd app.Heuristic.arc) cx.Spd_validate.Verdict.detail
                  cx.Spd_validate.Verdict.seed))
      | Spd_validate.Verdict.Unknown reason ->
          Spd_telemetry.Log.warn "pipeline.validate.unknown"
            [
              ("func", Spd_telemetry.Json.String func);
              ("tree", Spd_telemetry.Json.Int app.Heuristic.tree_id);
              ( "reason",
                Spd_telemetry.Json.String
                  (Spd_validate.Verdict.reason_text reason) );
            ]
      | Spd_validate.Verdict.Proved -> ());
      acc := r :: !acc
    end
  in
  let checker =
    if check || validate || checker_fault <> None then Some composed else None
  in
  let prog, apps, ds =
    time config Spd (fun () ->
        Heuristic.run ~profile ?checker ?params:spd_params ~mem_latency static)
  in
  observe_decisions ds;
  (prog, apps, ds, List.rev !acc)

(** The latency-independent nodes a preparation consumes, each a thunk
    so a caller decides how they are shared: {!nodes} computes each at
    most once per program, the engine memoizes them per workload across
    pipelines, latencies and requests. *)
type nodes = {
  naive : unit -> Prog.t;  (** {!clean}ed: the NAIVE program *)
  static : unit -> Prog.t;  (** {!disambiguate} of [naive] *)
  static_profile : unit -> Spd_sim.Profile.t;  (** {!profile} of [static] *)
  naive_profile : unit -> Spd_sim.Profile.t;  (** {!profile} of [naive] *)
  trace : Prog.t -> trace;
      (** {!trace} of a program, shared by programs of equal
          {!Spd_sim.Interp.content} *)
}

let nodes (config : Config.t) (lowered : Prog.t) : nodes =
  let once f =
    let cell = ref None in
    fun () ->
      match !cell with
      | Some v -> v
      | None ->
          let v = f () in
          cell := Some v;
          v
  in
  let naive = once (fun () -> clean config lowered) in
  let static = once (fun () -> disambiguate config (naive ())) in
  let traces = ref [] in
  {
    naive;
    static;
    static_profile = once (fun () -> profile config (static ()));
    naive_profile = once (fun () -> profile config (naive ()));
    trace =
      (fun prog ->
        let content = Spd_sim.Interp.content prog in
        match List.assoc_opt content !traces with
        | Some tr -> tr
        | None ->
            let tr = trace config prog in
            traces := (content, tr) :: !traces;
            tr);
  }

(** The per-kind tail of the chain: SPEC runs the heuristic over STATIC
    with the STATIC profile, PERFECT drops the arcs the NAIVE profile
    proved superfluous.  [config.check] compares the result's observable
    behaviour with NAIVE's; NAIVE's own check is its trace. *)
let assemble (config : Config.t) (kind : kind) (n : nodes) : prepared =
  let prog, applications, decisions, verdicts =
    match kind with
    | Naive -> (n.naive (), [], [], [])
    | Static -> (n.static (), [], [], [])
    | Spec -> speculate config ~profile:(n.static_profile ()) (n.static ())
    | Perfect ->
        let profile = n.naive_profile () in
        ( time config Disambig (fun () -> Static.perfect ~profile (n.naive ())),
          [],
          [],
          [] )
  in
  Prog.validate prog;
  if config.check then begin
    let expected = (n.trace (n.naive ())).observation in
    let observed = (n.trace prog).observation in
    if time config Check (fun () -> expected <> observed) then
      raise
        (Behaviour_mismatch
           (Fmt.str "pipeline %s changed program behaviour" (name kind)))
  end;
  {
    kind;
    config;
    mem_latency = config.mem_latency;
    prog;
    applications;
    decisions;
    verdicts;
    trace = (fun () -> n.trace prog);
  }

(** Build pipeline [kind] from a lowered program (no arcs yet) under
    [config] (default {!Config.default}).  [config.check] verifies
    observable equivalence with the unoptimized program — the paper
    validated SpD output the same way. *)
let prepare ?(config = Config.default) (kind : kind) (lowered : Prog.t) :
    prepared =
  assemble config kind (nodes config lowered)

(** Cycle count of a prepared program on [width] functional units: the
    schedule's charge of the program's trace. *)
let cycles (p : prepared) ~(width : Spd_machine.Descr.width) : int =
  let descr =
    { Spd_machine.Descr.width; mem_latency = p.mem_latency }
  in
  let timing =
    time p.config Schedule (fun () ->
        Spd_machine.Timing_builder.program descr p.prog)
  in
  let outcomes = (p.trace ()).outcomes in
  time p.config Simulate (fun () -> Spd_sim.Timing.charge timing outcomes)

(** Cycle count of a prepared program on [width] functional units whose
    load/store hardware reorders memory references within a [window]
    (section 2.3, {!Spd_machine.Dynamic}). *)
let hw_cycles (p : prepared) ~window ~(width : Spd_machine.Descr.width) :
    int =
  time p.config Simulate (fun () ->
      Spd_machine.Dynamic.cycles ~window ~width ~mem_latency:p.mem_latency
        p.prog)

(** Static code size in operations (Figure 6-4's metric). *)
let code_size (p : prepared) : int = Prog.code_size p.prog

(** The paper's speedup metric: [cycles_base / cycles_x - 1]. *)
let speedup ~(base : int) ~(this : int) : float =
  (float_of_int base /. float_of_int this) -. 1.0

(* ------------------------------------------------------------------ *)
(* SpD run-time dynamics *)

type region_dynamics = {
  func : string;
  tree_id : int;
  dep_kind : Memdep.kind;
  arc : int * int;
  alias_commits : int;
  noalias_commits : int;
}

type dynamics = {
  regions : region_dynamics list;
      (** one row per SpD application, sorted (func, tree, arc) *)
  squashed : int;  (** guarded stores squashed across all watched trees *)
}

(** Re-run a prepared program with a watch on every SpD application,
    attributing each traversal of a transformed region to its alias or
    no-alias version.  Cheap no-op for pipelines without applications
    (everything but SPEC). *)
let dynamics (p : prepared) : dynamics =
  match p.applications with
  | [] -> { regions = []; squashed = 0 }
  | apps ->
      let spd = Spd_sim.Profile.Spd.create () in
      let handles =
        List.map
          (fun (a : Heuristic.application) ->
            ( a,
              Spd_sim.Profile.Spd.watch spd ~func:a.func ~tree_id:a.tree_id
                ~predicate:a.predicate ))
          apps
      in
      ignore
        (time p.config Simulate (fun () ->
             Spd_sim.Interp.run ~spd ?fuel:p.config.fuel
               ?deadline:p.config.deadline p.prog));
      let regions =
        List.map
          (fun ((a : Heuristic.application), (r : Spd_sim.Profile.Spd.region))
             ->
            {
              func = a.func;
              tree_id = a.tree_id;
              dep_kind = a.kind;
              arc = a.arc;
              alias_commits = r.alias_commits;
              noalias_commits = r.noalias_commits;
            })
          handles
        |> List.sort (fun a b ->
               compare (a.func, a.tree_id, a.arc) (b.func, b.tree_id, b.arc))
      in
      { regions; squashed = (Spd_sim.Profile.Spd.totals spd).squashed }
