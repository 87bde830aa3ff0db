(** Harness tests: pipeline ordering guarantees, the differential
    random-program property (the repository's strongest correctness
    check), experiment memoization and report rendering. *)

open Util
module Ir = Spd_ir
module H = Spd_harness
module Pipeline = H.Pipeline

let case name f = Alcotest.test_case name `Quick f
let qcase = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* On an infinite machine, removing dependence arcs can only help, so
   PERFECT <= STATIC <= NAIVE holds exactly. *)

let test_pipeline_ordering_infinite () =
  List.iter
    (fun bench ->
      let w = Spd_workloads.Registry.by_name bench in
      let lowered = compile w.source in
      List.iter
        (fun mem_latency ->
          let c kind =
            Pipeline.cycles
              (Pipeline.prepare ~config:(Pipeline.Config.v ~mem_latency ()) kind lowered)
              ~width:Spd_machine.Descr.Infinite
          in
          let cn = c Pipeline.Naive in
          let cst = c Pipeline.Static in
          let cp = c Pipeline.Perfect in
          check_bool
            (Printf.sprintf "%s lat%d: STATIC (%d) <= NAIVE (%d)" bench
               mem_latency cst cn)
            true (cst <= cn);
          check_bool
            (Printf.sprintf "%s lat%d: PERFECT (%d) <= STATIC (%d)" bench
               mem_latency cp cst)
            true (cp <= cst))
        [ 2; 6 ])
    [ "adi"; "fft"; "moment"; "tree" ]

(* SPEC on an infinite machine is never slower than STATIC: SpD only
   removes arcs and adds off-critical-path compensation code. *)
let test_spec_no_slower_infinite () =
  List.iter
    (fun bench ->
      let w = Spd_workloads.Registry.by_name bench in
      let lowered = compile w.source in
      let c kind =
        Pipeline.cycles
          (Pipeline.prepare ~config:(Pipeline.Config.v ~mem_latency:6 ()) kind lowered)
          ~width:Spd_machine.Descr.Infinite
      in
      let cst = c Pipeline.Static and csp = c Pipeline.Spec in
      check_bool
        (Printf.sprintf "%s: SPEC (%d) <= STATIC (%d) on infinite machine"
           bench csp cst)
        true (csp <= cst))
    [ "adi"; "bcuint"; "fft"; "moment"; "smooft"; "solvde" ]

(* ------------------------------------------------------------------ *)
(* Differential testing on random programs: every pipeline must preserve
   behaviour ([prepare] raises Behaviour_mismatch otherwise). *)

let prop_pipelines_preserve_behaviour =
  QCheck.Test.make ~name:"pipelines preserve behaviour on random programs"
    ~count:40 Gen_prog.arbitrary_source (fun src ->
      let lowered = compile src in
      List.iter
        (fun kind -> ignore (Pipeline.prepare ~config:(Pipeline.Config.v ~mem_latency:2 ()) kind lowered))
        Pipeline.all;
      ignore (Pipeline.prepare ~config:(Pipeline.Config.v ~mem_latency:6 ()) Pipeline.Spec lowered);
      true)

(* And SpD actually fires on the generated helper (store-then-load on
   pointer parameters) for most programs. *)
let prop_spd_finds_the_helper =
  QCheck.Test.make ~name:"SpD fires on the generated helper" ~count:10
    Gen_prog.arbitrary_source (fun src ->
      let spec = Pipeline.prepare ~config:(Pipeline.Config.v ~mem_latency:6 ()) Pipeline.Spec (compile src) in
      List.exists
        (fun (a : Spd_core.Heuristic.application) -> a.func = "helper")
        spec.applications)

(* ------------------------------------------------------------------ *)
(* Session memoization *)

let with_session s f =
  Fun.protect ~finally:(fun () -> H.Engine.Session.close s) (fun () -> f s)

let get = function
  | H.Engine.Ok v -> v
  | H.Engine.Failed f -> raise (H.Engine.Cell_failed f)

(* [submit] plus a projection of its value; a failed cell raises
   [Cell_failed] *)
let ask s ~bench ~latency project artefact =
  get
    (project
       (H.Engine.Session.submit s (H.Engine.Query.v ~bench ~latency artefact)))

let test_experiment_memoizes () =
  with_session (H.Engine.Session.create ~jobs:1 ()) @@ fun s ->
  let cycles () =
    ask s ~bench:"moment" ~latency:2 H.Engine.to_int
      (H.Engine.Query.Cycles
         { kind = Pipeline.Spec; width = Spd_machine.Descr.Fus 4 })
  in
  let t0 = Unix.gettimeofday () in
  let a = cycles () in
  let t1 = Unix.gettimeofday () in
  let b = cycles () in
  let t2 = Unix.gettimeofday () in
  check_int "same result" a b;
  (* the second call is a table lookup; allow generous slack *)
  check_bool "second call much faster" true
    (t2 -. t1 < Float.max 0.05 ((t1 -. t0) /. 2.0))

let test_speedup_metric () =
  check_close "paper speedup metric" 0.25
    (Pipeline.speedup ~base:125 ~this:100);
  check_close "slowdown negative" (-0.2) (Pipeline.speedup ~base:100 ~this:125)

(* ------------------------------------------------------------------ *)
(* Reports render and mention every benchmark *)

let render f =
  let buf = Buffer.create 4096 in
  let ppf = Fmt.with_buffer buf in
  f ppf ();
  Fmt.flush ppf ();
  Buffer.contents buf

(* an artefact's pretty rendering, through the registry *)
let pretty s name =
  render (fun ppf () ->
      H.Artefact.render ~session:s H.Artefact.Pretty ppf
        (H.Artefact.of_names [ name ]))

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_reports_render () =
  with_session (H.Engine.Session.create ~jobs:1 ()) @@ fun s ->
  let t62 = pretty s "table6_2" in
  List.iter
    (fun (w : Spd_workloads.Workload.t) ->
      check_bool (w.name ^ " listed") true (contains t62 w.name))
    Spd_workloads.Registry.all;
  let t64 = pretty s "table6_4" in
  List.iter
    (fun k -> check_bool (k ^ " described") true (contains t64 k))
    [ "NAIVE"; "STATIC"; "SPEC"; "PERFECT" ];
  let t61 = pretty s "table6_1" in
  check_bool "branch latency shown" true (contains t61 "Branches")

(* ------------------------------------------------------------------ *)
(* Engine determinism: a session with jobs=4 must emit bit-identical
   Table 6-3 / Fig 6-2 / Fig 6-3 numbers to jobs=1, and a warm on-disk
   cache must reproduce them with zero pipeline recomputations. *)

module Engine = H.Engine
module Query = H.Engine.Query

(* the three deterministic grid artefacts, rendered through one
   explicit session *)
let grid_render s =
  pretty s "table6_3" ^ pretty s "fig6_2" ^ pretty s "fig6_3"

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let test_engine_determinism () =
  let seq = with_session (Engine.Session.create ~jobs:1 ()) grid_render in
  let par = with_session (Engine.Session.create ~jobs:4 ()) grid_render in
  check_bool "jobs=4 output bit-identical to jobs=1" true (String.equal seq par)

(* The machine-readable rendering must be as deterministic as the
   pretty one: the same artefact rendered through a 1-job and a 4-job
   session serialises to bit-identical JSON.  (Only the artefact tables
   are compared — the process-global metrics snapshot accumulates
   across the whole test binary and is deliberately excluded.) *)
let artefact_json s name =
  let a =
    match H.Artefact.find name with
    | Some a -> a
    | None -> Alcotest.failf "artefact %s not registered" name
  in
  String.concat "\n"
    (List.map
       (fun t -> Spd_telemetry.Json.to_string (H.Table.to_json t))
       (a.H.Artefact.tables s))

let test_artefact_json_jobs_invariant () =
  let j1 =
    with_session (Engine.Session.create ~jobs:1 ()) (fun s ->
        artefact_json s "table6_3")
  in
  let j4 =
    with_session (Engine.Session.create ~jobs:4 ()) (fun s ->
        artefact_json s "table6_3")
  in
  check_bool "table6_3 JSON bit-identical across jobs" true
    (String.equal j1 j4)

(* Engine counters (minus wall clock and [jobs]) are themselves
   deterministic: memoization computes each cell exactly once, however
   many domains race for it. *)
let stats_line s =
  Fmt.str "%a" Engine.Stats.pp (Engine.Session.stats s)

let test_stats_pp_stable_across_jobs () =
  let run jobs =
    let s = Engine.Session.create ~jobs () in
    let line =
      with_session s (fun s -> ignore (grid_render s); stats_line s)
    in
    line
  in
  let l1 = run 1 and l4 = run 4 in
  check_bool "Stats.pp sorted key=value" true
    (String.length l1 > 0 && l1.[0] <> ' ');
  check_bool "Stats.pp identical across jobs" true (String.equal l1 l4)

(* SpD run-time dynamics: the interpreter attributes commits to the
   transformed regions.  The profiled arcs SpD picks (low alias
   probability by construction) commit overwhelmingly on the no-alias
   version, and alias-version stores squash. *)
let test_spd_dynamics_counts () =
  with_session (Engine.Session.create ~jobs:2 ()) @@ fun s ->
  let d =
    ask s ~bench:"perm" ~latency:2 Engine.to_dynamics Query.Spd_dynamics
  in
  check_bool "perm has transformed regions" true (d.Pipeline.regions <> []);
  check_bool "no-alias commits observed" true
    (List.exists
       (fun (r : Pipeline.region_dynamics) -> r.noalias_commits > 0)
       d.Pipeline.regions);
  let adi =
    ask s ~bench:"adi" ~latency:2 Engine.to_dynamics Query.Spd_dynamics
  in
  check_bool "adi squashes alias-version stores" true
    (adi.Pipeline.squashed > 0);
  (* every traversal of a region commits exactly one of its versions *)
  List.iter
    (fun (r : Pipeline.region_dynamics) ->
      check_bool "commit counts non-negative" true
        (r.alias_commits >= 0 && r.noalias_commits >= 0))
    d.Pipeline.regions

let test_engine_disk_cache () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spd_cache_test_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let s1 = Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir () in
  let cold = with_session s1 grid_render in
  let st1 = Engine.Session.stats s1 in
  check_bool "cold run prepares pipelines" true
    (st1.Engine.Stats.preparations > 0);
  let s2 = Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir () in
  let warm = with_session s2 grid_render in
  let st2 = Engine.Session.stats s2 in
  check_int "warm run: zero pipeline recomputations" 0
    st2.Engine.Stats.preparations;
  check_int "warm run: zero simulations" 0 st2.Engine.Stats.simulations;
  check_bool "warm run served from disk" true (st2.Engine.Stats.disk_hits > 0);
  check_bool "warm output bit-identical to cold" true
    (String.equal cold warm)

let test_parallel_map_order () =
  let s = Engine.Session.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Engine.Session.close s) @@ fun () ->
  let xs = List.init 100 Fun.id in
  let ys = Engine.Session.parallel_map s (fun x -> x * x) xs in
  check_bool "parallel_map preserves order" true
    (ys = List.map (fun x -> x * x) xs);
  (* exceptions surface after the batch settles *)
  check_bool "parallel_map re-raises" true
    (match
       Engine.Session.parallel_map s
         (fun x -> if x = 17 then failwith "boom" else x)
         xs
     with
    | _ -> false
    | exception Failure _ -> true);
  (* ... carrying the backtrace of the raise inside the task, not of the
     pool's re-raise *)
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace recording)
  @@ fun () ->
  match
    Engine.Session.parallel_map s
      (fun x -> if x = 17 then raise (Failure "boom") else x)
      xs
  with
  | _ -> Alcotest.fail "parallel_map should re-raise"
  | exception Failure _ -> (
      let origin =
        match Printexc.backtrace_slots (Printexc.get_raw_backtrace ()) with
        | Some slots when Array.length slots > 0 -> (
            match Printexc.Slot.location slots.(0) with
            | Some loc -> loc.Printexc.filename
            | None -> "")
        | _ -> ""
      in
      check_bool
        (Printf.sprintf "backtrace starts at the task's raise (got %S)" origin)
        true
        (Filename.basename origin = "test_harness.ml"))

(* ------------------------------------------------------------------ *)
(* The Query API: one typed request path behind every accessor *)

let cycles_q ?fuel ?deadline () =
  Query.v ?fuel ?deadline ~bench:"moment" ~latency:2
    (Query.Cycles { kind = Pipeline.Spec; width = Spd_machine.Descr.Fus 4 })

let test_query_submit () =
  with_session (Engine.Session.create ~jobs:1 ()) @@ fun s ->
  (* submit answers what the pipeline computes directly *)
  let via_query = Engine.to_int (Engine.Session.submit s (cycles_q ())) in
  let direct =
    Pipeline.cycles
      (Pipeline.prepare
         ~config:(Pipeline.Config.v ~mem_latency:2 ())
         Pipeline.Spec
         (compile (Spd_workloads.Registry.by_name "moment").source))
      ~width:(Spd_machine.Descr.Fus 4)
  in
  check_int "submit = direct pipeline" direct (get via_query);
  (* keys are stable, human-readable coordinates *)
  check_bool "key spells the cell" true
    (Query.key (cycles_q ()) = "moment/2/cycles/SPEC/fus4");
  check_bool "budgets are part of the key" true
    (Query.key (cycles_q ~fuel:7 ()) = "moment/2/cycles/SPEC/fus4+fuel=7");
  (* wrong-kind projections fail loudly, not silently *)
  check_bool "to_float on an Int value raises" true
    (match Engine.to_float (Engine.Session.submit s (cycles_q ())) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* the smart constructor refuses nonsense budgets *)
  check_bool "fuel must be positive" true
    (match Query.v ~fuel:0 ~bench:"moment" ~latency:2 Query.Spd_counts with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The acceptance property of the daemon API: a burst of identical
   concurrent requests funnels onto ONE cell computation.  Eight
   domains submit the same query 100 times in total; the engine's
   counters must record exactly one preparation and one simulation. *)
let test_submit_dedup_concurrent () =
  with_session (Engine.Session.create ~jobs:2 ~disk_cache:false ())
  @@ fun s ->
  let per_domain = 100 / 8 and extra = 100 mod 8 in
  let domains =
    List.init 8 (fun i ->
        let n = per_domain + if i < extra then 1 else 0 in
        Domain.spawn (fun () ->
            List.init n (fun _ ->
                Engine.to_int (Engine.Session.submit s (cycles_q ())))))
  in
  let answers = List.concat_map Domain.join domains in
  check_int "100 requests answered" 100 (List.length answers);
  let first = get (List.hd answers) in
  List.iter (fun o -> check_int "all answers equal" first (get o)) answers;
  let st = Engine.Session.stats s in
  check_int "exactly one preparation" 1 st.Engine.Stats.preparations;
  check_int "exactly one simulation" 1 st.Engine.Stats.simulations

(* Per-request budgets are tenant quotas: a fuel-starved request fails
   alone, and the same coordinates without a budget still succeed. *)
let test_query_quota_isolation () =
  with_session (Engine.Session.create ~jobs:1 ~disk_cache:false ())
  @@ fun s ->
  (match Engine.Session.submit s (cycles_q ~fuel:1 ()) with
  | Engine.Failed _ -> ()
  | Engine.Ok _ -> Alcotest.fail "fuel=1 should exhaust the simulator");
  (match Engine.Session.submit s (cycles_q ()) with
  | Engine.Ok _ -> ()
  | Engine.Failed f ->
      Alcotest.failf "unbudgeted neighbour failed: %s"
        (Printexc.to_string f.Engine.exn));
  (* the starved request is recorded under its own budgeted key *)
  check_bool "failure recorded under the budgeted key" true
    (List.exists
       (fun (f : Engine.failure) ->
         f.Engine.key = "moment/2/SPEC/cycles/fus4+fuel=1")
       (Engine.Session.failures s))

(* A budget is part of every simulator node's key: a fuel-starved
   request fails its own profile, the unbudgeted request still shares
   the budget-free STATIC node, and its value is the one a standalone
   preparation computes.  The unbudgeted request interprets two
   programs: NAIVE (its check's ground truth) and SPEC. *)
let test_budget_nodes_isolated () =
  with_session (Engine.Session.create ~jobs:1 ~disk_cache:false ())
  @@ fun s ->
  (match Engine.Session.submit s (cycles_q ~fuel:1 ()) with
  | Engine.Failed _ -> ()
  | Engine.Ok _ -> Alcotest.fail "fuel=1 should exhaust the simulator");
  let got = get (Engine.to_int (Engine.Session.submit s (cycles_q ()))) in
  let st = Engine.Session.stats s in
  check_int "STATIC node shared across budgets" 1 st.Engine.Stats.static_runs;
  check_int "one profile per budget" 2 st.Engine.Stats.profiles;
  check_int "unbudgeted traces: NAIVE and SPEC" 2 st.Engine.Stats.traces;
  let standalone =
    Pipeline.cycles
      (Pipeline.prepare
         ~config:(Pipeline.Config.v ~mem_latency:2 ())
         Pipeline.Spec
         (compile (Spd_workloads.Registry.by_name "moment").source))
      ~width:(Spd_machine.Descr.Fus 4)
  in
  check_int "engine node = standalone prepare" standalone got

(* Explicit default heuristic parameters key exactly like the implicit
   ones, so an ablation point at the defaults reuses the grid's cells;
   the grid's own payload string is unchanged. *)
let test_fingerprint_canonical () =
  let fp = Pipeline.Config.fingerprint in
  let module Hr = Spd_core.Heuristic in
  check_bool "grid fingerprint unchanged" true
    (fp Pipeline.Config.default
    = "check=true;graft=false;lat=2;params=default");
  check_bool "Some default_params = None" true
    (fp (Pipeline.Config.v ~spd_params:Hr.default_params ())
    = fp Pipeline.Config.default);
  check_bool "other parameters key apart" true
    (fp
       (Pipeline.Config.v
          ~spd_params:{ Hr.default_params with min_gain = 1.5 }
          ())
    <> fp Pipeline.Config.default);
  let q ?spd_params ?graft () =
    Query.v ?spd_params ?graft ~bench:"adi" ~latency:6
      (Query.Cycles { kind = Pipeline.Spec; width = Spd_machine.Descr.Fus 5 })
  in
  check_bool "query keys agree on the defaults" true
    (Query.key (q ~spd_params:Hr.default_params ()) = Query.key (q ()));
  check_bool "variant tags name the extension cells" true
    (Query.key
       (q ~graft:true ~spd_params:{ Hr.default_params with max_expansion = 1.0 } ())
    = "adi/6/cycles/SPEC/fus5+graft+me=1+mg=0.75+ma=64")

(* The stage DAG over a cold `all` session (paper and extension
   artefacts): one static disambiguation per (workload, graft), one
   profile per profiled program, one SpD run per distinct (workload,
   graft, latency, parameters), and one trace per distinct program
   content — the 22 NAIVE programs (STATIC and PERFECT share them) and
   the 32 distinct SPEC programs among the 93 SpD runs' results.  Every
   interpretation is one of those traces, a profile, or one of the 44
   hardware-window cycle counts.  A warm second pass over the extension
   artefacts then prepares and interprets nothing. *)
let test_stage_dag_counts () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spd_dag_test_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let tables s names =
    List.concat_map
      (fun (a : H.Artefact.t) ->
        List.map
          (fun t -> Spd_telemetry.Json.to_string (H.Table.to_json t))
          (a.tables s))
      (H.Artefact.of_names names)
  in
  (* every interpretation of the process, whoever ran it *)
  let sim_runs () =
    match List.assoc "spd.sim.runs" (Spd_telemetry.Metrics.snapshot ()) with
    | Spd_telemetry.Metrics.Counter n -> n
    | Spd_telemetry.Metrics.Hist _ -> Alcotest.fail "spd.sim.runs is a counter"
  in
  let runs0 = sim_runs () in
  let s1 = Engine.Session.create ~jobs:1 ~disk_cache:true ~cache_dir:dir () in
  let cold =
    with_session s1 (fun s ->
        ignore (tables s H.Artefact.paper_set);
        tables s H.Artefact.extension_set)
  in
  let st = Engine.Session.stats s1 in
  check_int "lowerings" 11 st.Engine.Stats.lowerings;
  check_int "traces: 22 NAIVE + 32 distinct SPEC programs" 54
    st.Engine.Stats.traces;
  check_int "interpretations: 54 traces + 33 profiles + 44 hw-window" 131
    (sim_runs () - runs0);
  check_int "static disambiguations" 22 st.Engine.Stats.static_runs;
  check_int "profiles" 33 st.Engine.Stats.profiles;
  check_int "SpD heuristic runs" 93 st.Engine.Stats.spd_runs;
  check_int "no failures" 0 st.Engine.Stats.cell_failures;
  let runs1 = sim_runs () in
  let s2 = Engine.Session.create ~jobs:1 ~disk_cache:true ~cache_dir:dir () in
  let warm = with_session s2 (fun s -> tables s H.Artefact.extension_set) in
  let st2 = Engine.Session.stats s2 in
  check_int "warm extensions: preparations" 0 st2.Engine.Stats.preparations;
  check_int "warm extensions: simulations" 0 st2.Engine.Stats.simulations;
  check_int "warm extensions: lowerings" 0 st2.Engine.Stats.lowerings;
  check_int "warm extensions: interpretations" 0 (sim_runs () - runs1);
  check_bool "warm extensions byte-identical to cold" true (cold = warm)

(* Trace nodes are keyed by what the interpreter reads.  A program
   that differs only in memory arcs has the same content and shares its
   trace — NAIVE, STATIC and PERFECT interpret once — while a program
   whose operations differ (SPEC, or one changed constant) does not. *)
let test_trace_content_key () =
  let module Interp = Spd_sim.Interp in
  let naive =
    Pipeline.clean Pipeline.Config.default
      (compile (Spd_workloads.Registry.by_name "moment").source)
  in
  let strip_arcs =
    Ir.Prog.map_trees (fun _ (t : Ir.Tree.t) -> { t with arcs = [] }) naive
  in
  check_bool "arcs are not content" true
    (String.equal (Interp.content naive) (Interp.content strip_arcs));
  let changed = ref false in
  let one_op =
    Ir.Prog.map_trees
      (fun _ (t : Ir.Tree.t) ->
        let insns =
          Array.map
            (fun (i : Ir.Insn.t) ->
              match i.op with
              | Ir.Opcode.Const (Ir.Value.Int n) when not !changed ->
                  changed := true;
                  { i with op = Ir.Opcode.Const (Ir.Value.Int (n + 1)) }
              | _ -> i)
            t.insns
        in
        { t with insns })
      naive
  in
  check_bool "a constant was changed" true !changed;
  check_bool "one op difference is content" false
    (String.equal (Interp.content naive) (Interp.content one_op));
  with_session (Engine.Session.create ~jobs:1 ()) @@ fun s ->
  let traces () = (Engine.Session.stats s).Engine.Stats.traces in
  List.iter
    (fun kind ->
      ignore
        (get
           (Engine.to_int
              (Engine.Session.submit s
                 (Query.v ~bench:"moment" ~latency:2
                    (Query.Cycles { kind; width = Spd_machine.Descr.Fus 5 }))))))
    Pipeline.[ Naive; Static; Perfect ];
  check_int "NAIVE, STATIC and PERFECT share one trace" 1 (traces ());
  let spec = Engine.Session.prepared s ~bench:"moment" ~latency:2 Pipeline.Spec in
  check_bool "SPEC changed moment's operations" false
    (String.equal (Interp.content naive) (Interp.content spec.prog));
  ignore (Engine.Session.trace s ~bench:"moment" ~latency:2 Pipeline.Spec);
  check_int "SPEC has its own trace" 2 (traces ())

(* Every cell span of a cold `all` session is tiled by the self times of
   the stage spans nested in it plus the cell's own remainder, the
   explicit "other" bucket — the same rule perfbench/spans.py applies to
   a --trace file — and "other" stays under 10% of the cells' wall
   clock: the stages account for the work.  The session's per-stage
   totals are those self times too (a validation nested in the SpD
   stage is not counted twice). *)
let test_stage_spans_tile_cells () =
  let module Trace = Spd_telemetry.Trace in
  Trace.start ();
  let stats =
    Fun.protect ~finally:Trace.stop @@ fun () ->
    with_session (Engine.Session.create ~jobs:1 ()) @@ fun s ->
    List.iter
      (fun (a : H.Artefact.t) -> ignore (a.tables s))
      (H.Artefact.of_names (H.Artefact.paper_set @ H.Artefact.extension_set));
    (* the validation ledger nests a validate stage in the spd stage *)
    ignore
      (Engine.Session.submit s
         (Query.v ~bench:"adi" ~latency:2 Query.Spd_verdicts));
    Engine.Session.stats s
  in
  check_int "no dropped events" 0 (Trace.dropped ());
  let eps = 0.01 (* microseconds of float rounding *) in
  let open Trace in
  let events =
    List.sort
      (fun a b -> compare (a.tid, a.ts, -.a.dur) (b.tid, b.ts, -.b.dur))
      (Trace.events ())
  in
  (* nest each domain's spans: a span's parent is the innermost open
     span containing its start *)
  let children = Hashtbl.create 1024 in
  let parent = Hashtbl.create 1024 in
  let stack = ref [] in
  List.iteri
    (fun i e ->
      stack :=
        List.filter
          (fun (_, (p : event)) -> p.tid = e.tid && e.ts < p.ts +. p.dur -. eps)
          !stack;
      (match !stack with
      | (pi, p) :: _ ->
          if e.ts +. e.dur > p.ts +. p.dur +. eps then
            Alcotest.failf "%s overruns its parent %s" e.name p.name;
          Hashtbl.replace parent i pi;
          Hashtbl.replace children pi
            (i :: Option.value ~default:[] (Hashtbl.find_opt children pi))
      | [] -> ());
      stack := (i, e) :: !stack)
    events;
  let ev = Array.of_list events in
  let kids i = Option.value ~default:[] (Hashtbl.find_opt children i) in
  let self i =
    ev.(i).dur -. List.fold_left (fun a c -> a +. ev.(c).dur) 0.0 (kids i)
  in
  let is_cell i = String.starts_with ~prefix:"cell:" ev.(i).name in
  let rec descendants i = List.concat_map (fun c -> c :: descendants c) (kids i) in
  let cells = List.filter is_cell (List.init (Array.length ev) Fun.id) in
  check_bool "cells were traced" true (List.length cells > 400);
  let other = ref 0.0 and wall = ref 0.0 in
  List.iter
    (fun c ->
      let nested = descendants c in
      List.iter
        (fun d ->
          if not (String.starts_with ~prefix:"stage:" ev.(d).name) then
            Alcotest.failf "%s: unexpected span %s" ev.(c).name ev.(d).name)
        nested;
      let stages = List.fold_left (fun a d -> a +. self d) 0.0 nested in
      let o = self c in
      if o < -.eps || Float.abs (stages +. o -. ev.(c).dur) > eps then
        Alcotest.failf "%s: stages %.3fus + other %.3fus <> span %.3fus"
          ev.(c).name stages o ev.(c).dur;
      other := !other +. o;
      if not (Hashtbl.mem parent c) then wall := !wall +. ev.(c).dur)
    cells;
  if !other > 0.10 *. !wall then
    Alcotest.failf "other %.1fms exceeds 10%% of the cells' %.1fms"
      (!other /. 1e3) (!wall /. 1e3);
  (* per stage, the timer's total matches the spans' self times *)
  let span_self = Hashtbl.create 16 in
  Array.iteri
    (fun i e ->
      match String.split_on_char ':' e.name with
      | [ "stage"; st ] ->
          Hashtbl.replace span_self st
            (self i
            +. Option.value ~default:0.0 (Hashtbl.find_opt span_self st))
      | _ -> ())
    ev;
  check_bool "a validate stage ran" true (Hashtbl.mem span_self "validate");
  List.iter
    (fun (st, secs) ->
      let name = Pipeline.stage_name st in
      let spans =
        Option.value ~default:0.0 (Hashtbl.find_opt span_self name) /. 1e6
      in
      if Float.abs (secs -. spans) > 0.002 +. (0.02 *. spans) then
        Alcotest.failf "stage %s: timer %.4fs, span self time %.4fs" name
          secs spans)
    stats.Engine.Stats.stage_seconds

(* ------------------------------------------------------------------ *)
(* The decision ledger through the engine (spd why) *)

(* the spd-decisions/1 document exactly as `spd why --format json`
   prints it *)
let why_json ?fn ?tree s workload =
  Spd_telemetry.Json.to_string
    (H.Why.to_json ?fn ?tree (H.Why.analyze ~mem_latency:2 s workload))

(* The why document is deterministic: byte-identical across job counts
   and across a cold and a warm on-disk cache. *)
let test_why_json_deterministic () =
  let j1 =
    with_session (Engine.Session.create ~jobs:1 ()) (fun s ->
        why_json s "perm")
  in
  let j4 =
    with_session (Engine.Session.create ~jobs:4 ()) (fun s ->
        why_json s "perm")
  in
  check_bool "why JSON bit-identical across jobs" true (String.equal j1 j4);
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spd_why_cache_test_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cold =
    with_session
      (Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir ())
      (fun s -> why_json s "perm")
  in
  let s2 = Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir () in
  let warm = with_session s2 (fun s -> why_json s "perm") in
  check_int "warm why: zero pipeline recomputations" 0
    (Engine.Session.stats s2).Engine.Stats.preparations;
  check_bool "warm why byte-identical to cold" true (String.equal cold warm);
  check_bool "why = uncached CLI baseline" true (String.equal j1 cold)

(* The ledger cell, the spd-counts cell and the report rollup agree:
   three surfaces, one underlying ledger. *)
let test_why_agrees_with_counts () =
  with_session (Engine.Session.create ~jobs:2 ()) @@ fun s ->
  List.iter
    (fun latency ->
      List.iter
        (fun bench ->
          let ds =
            ask s ~bench ~latency Engine.to_decisions Query.Spd_decisions
          in
          let applied = Spd_core.Heuristic.applied_decisions ds in
          let row =
            List.fold_left
              (fun (r, w, o) (d : Spd_core.Heuristic.decision) ->
                match d.kind with
                | Spd_ir.Memdep.Raw -> (r + 1, w, o)
                | Spd_ir.Memdep.War -> (r, w + 1, o)
                | Spd_ir.Memdep.Waw -> (r, w, o + 1))
              (0, 0, 0) applied
          in
          check_bool
            (Printf.sprintf "%s/lat%d: ledger row = spd-counts row" bench
               latency)
            true
            (row = ask s ~bench ~latency Engine.to_counts Query.Spd_counts))
        (H.Report.benches ()))
    [ 2; 6 ];
  (* the aggregate artefact is registered and builds from the same
     cells *)
  check_bool "spd-decisions artefact registered" true
    (H.Artefact.find "spd-decisions" <> None);
  check_bool "spd-decisions tables non-empty" true
    (H.Report.spd_decisions_tables s <> [])

(* the flag parsers shared by bin/spd, bench/main and the daemon *)
let test_cliflags () =
  let module C = H.Cliflags in
  check_bool "pos_int ok" true (C.pos_int ~flag:"--fuel" "42" = Ok 42);
  (match C.pos_int ~flag:"--fuel" "0" with
  | Error msg ->
      check_bool "pos_int names the flag" true (contains msg "--fuel")
  | Ok _ -> Alcotest.fail "0 is not a positive integer");
  check_bool "pos_float ok" true
    (C.pos_float ~flag:"--deadline" "1.5" = Ok 1.5);
  check_bool "pos_float rejects nan" true
    (Result.is_error (C.pos_float ~flag:"--deadline" "nan"));
  check_bool "widths ok" true (C.widths "1, 2,8" = Ok [ 1; 2; 8 ]);
  (match C.widths "1,zero" with
  | Error msg ->
      check_bool "widths names the flag" true (contains msg "--widths")
  | Ok _ -> Alcotest.fail "widths should reject non-integers")

let tests =
  [
    case "PERFECT <= STATIC <= NAIVE (infinite machine)"
      test_pipeline_ordering_infinite;
    case "SPEC <= STATIC (infinite machine)" test_spec_no_slower_infinite;
    qcase prop_pipelines_preserve_behaviour;
    qcase prop_spd_finds_the_helper;
    case "experiment memoization" test_experiment_memoizes;
    case "query submit: one request path" test_query_submit;
    case "query submit: concurrent burst deduplicates" test_submit_dedup_concurrent;
    case "query quotas isolate tenants" test_query_quota_isolation;
    case "budgets key their own stage nodes" test_budget_nodes_isolated;
    case "fingerprint: default parameters are canonical"
      test_fingerprint_canonical;
    case "stage DAG: node counts of a cold all, warm extensions"
      test_stage_dag_counts;
    case "trace nodes keyed by interpreted content" test_trace_content_key;
    case "stage spans tile every cell of a cold all"
      test_stage_spans_tile_cells;
    case "cliflags: shared flag parsers" test_cliflags;
    case "speedup metric" test_speedup_metric;
    case "reports render" test_reports_render;
    case "parallel_map: order and exceptions" test_parallel_map_order;
    case "engine determinism across jobs" test_engine_determinism;
    case "artefact JSON invariant across jobs" test_artefact_json_jobs_invariant;
    case "Stats.pp stable across jobs" test_stats_pp_stable_across_jobs;
    case "spd-dynamics counters" test_spd_dynamics_counts;
    case "engine on-disk cache" test_engine_disk_cache;
    case "why JSON deterministic (jobs, cache)" test_why_json_deterministic;
    case "why ledger = spd-counts row" test_why_agrees_with_counts;
  ]
