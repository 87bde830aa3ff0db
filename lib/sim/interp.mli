(** Cycle-level simulator.

    The interpreter executes decision trees traversal by traversal with
    sequential (original program order) semantics: every instruction is
    evaluated, stores commit only when their guard holds, and the first
    exit whose guard holds is taken.  This is the ground-truth semantics
    against which all disambiguator pipelines are validated.

    Every run records the exact per-tree histogram of traversal outcomes
    — the exit taken and the guarded stores committed ({!Outcomes}).  On
    a machine described by a {!Timing} table (built from a machine
    schedule or from the infinite-machine ASAP analysis) a traversal
    costs [max(taken-exit completion, committed store completions)]
    cycles, a function of its outcome alone, so the program's execution
    time on that machine — the paper's measurement methodology — is
    {!Timing.charge} of the histogram.  [run ~timing] is exactly that: a
    run, then the charge.  A caller that keeps {!result.outcomes} prices
    any number of further machines without interpreting again.

    The interpreter also fills in a {!Profile}: exit frequencies and
    dynamic alias counts per memory dependence arc (the PERFECT
    disambiguator's input). *)

(** {1 Structured errors}

    Every abnormal termination raises {!Sim_error} with a
    machine-readable kind plus the execution context — function, tree
    and faulting operation — so harness layers can render and classify
    failures without parsing message strings. *)

type error_kind =
  | Fuel_exhausted of int  (** the traversal budget that ran out *)
  | Deadline_exceeded of float  (** the wall-clock budget, seconds *)
  | Call_depth_exceeded of int
  | Stack_overflow
  | Store_out_of_bounds of int
  | Unknown_global of string
  | Unknown_function of string
  | No_such_tree of int
  | Globals_exceed_memory
  | Eval_error of string  (** a pure-evaluation fault, e.g. division by zero *)

type error_context = {
  in_func : string option;
  in_tree : int option;
  at_op : string option;
}

val no_context : error_context

exception Sim_error of error_kind * error_context

val pp_error_kind : Format.formatter -> error_kind -> unit
val pp_error : Format.formatter -> error_kind * error_context -> unit

(** The default traversal budget of {!run} when no [fuel] is given. *)
val default_fuel : int

type result = {
  ret : Spd_ir.Value.t;  (** return value of [main] *)
  output : Spd_ir.Value.t list;  (** values printed, in order *)
  cycles : int;
      (** {!Timing.charge} of [outcomes] under [timing], plus the
          [traversal_cost] of every traversal; 0 when neither is given *)
  traversals : int;  (** tree traversals executed *)
  outcomes : Outcomes.t;  (** the run's traversal-outcome histogram *)
}
type finfo = {
  func : Spd_ir.Prog.func;
  by_id : Spd_ir.Tree.t option array;
  nregs : int;
}
type frame = {
  saved_regs : Spd_ir.Value.t array;
  saved_fp : int;
  saved_sp : int;
  saved_fi : finfo;
  ret_reg : Spd_ir.Reg.t option;
  resume : int;
}
val build_finfo : Spd_ir.Prog.func -> finfo

(** Lay out globals in low memory; returns the address map and the first
    free address.  Address 0 is reserved so that a stray null-ish pointer
    faults loudly in bounds checks of size-0 accesses. *)
val layout : Spd_ir.Prog.t -> (string -> int) * int

(** Per-traversal cost callback for dynamic timing models: receives the
    traversal's concrete memory addresses ([addrs], indexed by instruction
    position, [-1] for non-memory ops), which guarded operations committed
    ([active]) and the taken exit, and returns the traversal's cycles.
    Used by the hardware dynamic-disambiguation baseline, which resolves
    aliases with run-time address compares. *)
type traversal_cost =
    func:string ->
    tree:Spd_ir.Tree.t ->
    addrs:int array -> active:bool array -> taken:int -> int

(** [run prog] interprets [prog] to completion.

    [fuel] bounds the number of tree traversals (default
    {!default_fuel}); exhausting it raises [Sim_error (Fuel_exhausted
    fuel, _)].  [deadline] is a wall-clock budget in seconds, checked
    every few thousand traversals; exceeding it raises
    [Sim_error (Deadline_exceeded d, _)].  [spd] registers watches on
    SpD-transformed regions; their alias/no-alias commit and squash
    counters are filled in as the program runs.

    [timing] prices the run: [cycles] is {!Timing.charge} of the
    recorded outcomes (a tree's share is its {!Timing.charge_tree}).
    [traversal_cost] instead charges each traversal as it runs (the
    address-dependent hardware model).

    [replay] (default true) lets traversals repeating an already-seen
    outcome replay the committed-arc and squash summary cached in the
    tree's {!Replay} table instead of re-walking the tree.  The outcome
    histogram is recorded either way, and results are bit-identical —
    alias address compares always run against live addresses, and any
    guard difference falls back to the full walk — so [~replay:false]
    exists only for the differential tests. *)
val run :
  ?timing:Timing.t ->
  ?traversal_cost:traversal_cost ->
  ?profile:Profile.t ->
  ?spd:Profile.Spd.t ->
  ?mem_words:int ->
  ?fuel:int ->
  ?deadline:float -> ?replay:bool -> Spd_ir.Prog.t -> result

(** The bytes of everything {!run} reads of a program when it collects
    no profile: the program with every tree's memory arcs, value ranges
    and address parameters dropped, marshalled without sharing.  Two
    programs with equal content have equal {!result}s under equal
    budgets, so the engine keys its interpretations by this
    content. *)
val content : Spd_ir.Prog.t -> string

(** Run and return just the observable behaviour (return value and output),
    used for semantic-equivalence checks between pipelines. *)
val observe :
  ?mem_words:int ->
  ?fuel:int ->
  ?deadline:float ->
  Spd_ir.Prog.t -> Spd_ir.Value.t * Spd_ir.Value.t list
