(** The four disambiguation pipelines of Table 6-4.

    {v
    source --lower--> trees --all-pairs arcs-->            NAIVE
    NAIVE  --GCD/Banerjee (affine forms)-->                STATIC
    STATIC --profiled path probabilities--SpD heuristic--> SPEC
    NAIVE  --profiled alias counts, drop superfluous-->    PERFECT
    v}

    Every prepared program is validated to produce the same observable
    behaviour (return value and printed output) as the NAIVE baseline. *)

module Memarcs = Spd_analysis.Memarcs
module Static = Spd_disambig.Static_disambig
module Heuristic = Spd_core.Heuristic
type kind = Naive | Static | Spec | Perfect
val all : kind list
val name : kind -> string
val pp : Format.formatter -> kind -> unit

(** {1 Stages}

    The instrumented stages of a pipeline run, in execution order:
    lowering (performed by the engine before {!prepare}), scalar cleanup
    and memory arcs, static disambiguation (GCD/Banerjee, and PERFECT's
    superfluous-arc removal), profiling, the SpD heuristic, translation
    validation of each SpD application, the observable-behaviour
    comparison, scheduling, and simulation — interpreting a program
    ({!trace}, {!hw_cycles}, {!dynamics}) and charging its outcomes on
    a schedule. *)

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

val stages : stage list
val stage_name : stage -> string
val stage_index : stage -> int

(** {1 Configuration}

    All knobs of [prepare], collapsed into one record so call sites name
    only what they change and the engine can fingerprint a configuration
    for its content-addressed result cache. *)

module Config : sig
  type t = {
    check : bool;  (** verify observable equivalence with NAIVE *)
    validate : bool;
        (** translation-validate every SpD application symbolically
            ({!Spd_validate.Validate.check_application}): a [Refuted]
            verdict raises {!Validation_failed}, an [Unknown] verdict is
            counted and logged, and the prepared record carries the full
            verdict ledger *)
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

  (** [check = true], no validation, no parameter overrides, no
      grafting, 2-cycle memory, no budgets, no timer, no checker
      fault. *)
  val default : t

  (** Build a configuration naming only the fields that differ from
      {!default}. *)
  val v :
    ?check:bool ->
    ?validate:bool ->
    ?spd_params:Heuristic.params ->
    ?graft:bool ->
    ?fuel:int ->
    ?deadline:float ->
    ?timer:(stage -> float -> unit) ->
    ?checker_fault:(unit -> unit) ->
    ?mem_latency:int ->
    unit -> t

  (** Canonical encoding of the semantic fields (everything except
      [timer], [checker_fault], [fuel] and [deadline] — budgets can only
      turn a result into a failure, never change a successfully computed
      value); [validate] is likewise excluded, since validation never
      changes the prepared program.  Two configurations with equal
      fingerprints prepare identical programs.  Used by {!Engine}'s
      on-disk cache keys. *)
  val fingerprint : t -> string

  (** [Some Heuristic.default_params] becomes [None]: the two prepare
      identical programs, so they share fingerprints, query keys and
      cache entries. *)
  val canonical_params : Heuristic.params option -> Heuristic.params option
end

(** [time config stage f] runs [f] as an instrumented stage: a
    [stage:<name>] trace span, and [config.timer] called with the
    stage's self time — its wall clock minus that of the stages run
    inside it on the same domain. *)
val time : Config.t -> stage -> (unit -> 'a) -> 'a

(** Return value and printed output of a run. *)
type observation = Spd_ir.Value.t * Spd_ir.Value.t list

(** One interpretation of a program: its observable behaviour, which
    every check compares, and its traversal-outcome histogram, which
    every cycle count charges ({!Spd_sim.Timing.charge}). *)
type trace = {
  observation : observation;
  outcomes : Spd_sim.Outcomes.t;
  traversals : int;  (** tree traversals of the run *)
}

type prepared = {
  kind : kind;
  config : Config.t;
  mem_latency : int;
  prog : Spd_ir.Prog.t;
  applications : Heuristic.application list;
  decisions : Heuristic.decision list;
      (** the heuristic's full decision ledger (SPEC only) *)
  verdicts : Spd_validate.Validate.report list;
      (** per-application translation-validation ledger, in application
          order (SPEC with [config.validate] only) *)
  trace : unit -> trace;
      (** the program's interpretation, computed on first use and shared
          with every program of equal content the same {!nodes}
          interpreted *)
}

(** Profile a program: run it once with instrumentation. *)
val profile_of :
  ?fuel:int -> ?deadline:float -> Spd_ir.Prog.t -> Spd_sim.Profile.t

exception Behaviour_mismatch of string

(** Raised by a [config.validate] preparation when the symbolic
    equivalence checker refutes an SpD application; the payload names
    the application and renders the concrete counterexample.  Like any
    checker exception, it propagates out of {!prepare} and the engine's
    protected cell runner contains it to the affected grid cell. *)
exception Validation_failed of string

(** {1 The stage chain}

    A preparation is a chain of stage nodes.  The latency-independent
    head is shared by every pipeline of one program:

    {v
    lowered --clean--> NAIVE --disambiguate--> STATIC --profile--> P(STATIC)
                       NAIVE --profile--> P(NAIVE)
    any program --trace--> observation + outcome histogram
    v}

    and {!assemble} adds the per-kind tail: SPEC runs the SpD heuristic
    (the only latency-dependent stage) over STATIC with P(STATIC),
    PERFECT drops the arcs P(NAIVE) proved superfluous.  Each stage
    function reads only [graft], the budgets and the timer of its
    configuration, plus [mem_latency], [spd_params], [check], [validate]
    and [checker_fault] for the tail. *)

(** Forwarding and redundant-load elimination, optional grafting
    ([config.graft]), then all-pairs memory arcs: the NAIVE program. *)
val clean : Config.t -> Spd_ir.Prog.t -> Spd_ir.Prog.t

(** Interpret a program once (a [Simulate] stage): its {!trace}. *)
val trace : Config.t -> Spd_ir.Prog.t -> trace

(** GCD/Banerjee static disambiguation: NAIVE to STATIC. *)
val disambiguate : Config.t -> Spd_ir.Prog.t -> Spd_ir.Prog.t

(** Profile a program under the configuration's budgets. *)
val profile : Config.t -> Spd_ir.Prog.t -> Spd_sim.Profile.t

(** The shared head of the chain for one program, as thunks: the caller
    decides how they are memoized. *)
type nodes = {
  naive : unit -> Spd_ir.Prog.t;  (** {!clean}ed: the NAIVE program *)
  static : unit -> Spd_ir.Prog.t;  (** {!disambiguate} of [naive] *)
  static_profile : unit -> Spd_sim.Profile.t;  (** {!profile} of [static] *)
  naive_profile : unit -> Spd_sim.Profile.t;  (** {!profile} of [naive] *)
  trace : Spd_ir.Prog.t -> trace;
      (** {!trace} of a program; programs whose
          {!Spd_sim.Interp.content} is equal may share one *)
}

(** The nodes of one lowered program, each computed at most once, on
    first use; [trace] interprets each distinct content once.  Not
    domain-safe: for one caller's sequential use. *)
val nodes : Config.t -> Spd_ir.Prog.t -> nodes

(** The per-kind tail of the chain over [nodes].  With [config.check],
    the prepared program's observable behaviour must equal the NAIVE
    program's (raises {!Behaviour_mismatch}), both read from
    [nodes.trace]: a program whose content equals NAIVE's (STATIC and
    PERFECT change only arcs) is compared through the shared trace. *)
val assemble : Config.t -> kind -> nodes -> prepared

(** Build pipeline [kind] from a lowered program (no arcs yet) under
    [config] (default {!Config.default}): [assemble config kind (nodes
    config lowered)].  [config.check] verifies observable equivalence
    with the unoptimized program — the paper validated SpD output the
    same way. *)
val prepare : ?config:Config.t -> kind -> Spd_ir.Prog.t -> prepared

(** Cycle count of a prepared program on [width] functional units: the
    schedule built for that machine charged on the program's {!trace}
    ({!Spd_sim.Timing.charge}); no interpretation beyond the trace. *)
val cycles : prepared -> width:Spd_machine.Descr.width -> int

(** Cycle count of a prepared program on [width] functional units whose
    load/store hardware reorders memory references within a [window]
    (section 2.3, {!Spd_machine.Dynamic}). *)
val hw_cycles :
  prepared -> window:int -> width:Spd_machine.Descr.width -> int

(** Static code size in operations (Figure 6-4's metric). *)
val code_size : prepared -> int

(** The paper's speedup metric: [cycles_base / cycles_x - 1]. *)
val speedup : base:int -> this:int -> float

(** {1 SpD run-time dynamics}

    How the transformed code actually behaved: per SpD application, how
    often the alias version vs. the speculative no-alias version
    committed, and how many guarded operations were squashed. *)

type region_dynamics = {
  func : string;
  tree_id : int;
  dep_kind : Spd_ir.Memdep.kind;
  arc : int * int;
  alias_commits : int;
  noalias_commits : int;
}

type dynamics = {
  regions : region_dynamics list;
      (** one row per SpD application, sorted (func, tree, arc) *)
  squashed : int;  (** guarded stores squashed across all watched trees *)
}

(** Re-run a prepared program with a watch on every SpD application.
    Cheap no-op for pipelines without applications (everything but
    SPEC). *)
val dynamics : prepared -> dynamics
