(** Simulator tests: pure evaluation, guarded commit semantics, calls and
    recursion frames, non-faulting speculative loads, timing accumulation,
    profiling, and the replay cache (a cached traversal summary must be
    byte-identical to full interpretation). *)

open Util
module Ir = Spd_ir
module Sim = Spd_sim
open Ir

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Pure evaluation *)

let test_eval_int () =
  let e op a b = Sim.Eval.eval_pure (Opcode.Ibin op) [ Value.Int a; Value.Int b ] in
  check_bool "add" true (Value.equal (e Opcode.Add 2 3) (Value.Int 5));
  check_bool "div trunc" true (Value.equal (e Opcode.Div 7 2) (Value.Int 3));
  check_bool "neg div" true (Value.equal (e Opcode.Div (-7) 2) (Value.Int (-3)));
  check_bool "rem sign" true (Value.equal (e Opcode.Rem (-7) 2) (Value.Int (-1)));
  check_bool "xor" true (Value.equal (e Opcode.Xor 12 10) (Value.Int 6));
  (match e Opcode.Div 1 0 with
  | exception Sim.Eval.Runtime_error _ -> ()
  | _ -> Alcotest.fail "division by zero accepted")

let test_eval_select_not () =
  let sel p = Sim.Eval.eval_pure Opcode.Select [ p; Value.Int 1; Value.Int 2 ] in
  check_bool "select true" true (Value.equal (sel (Value.Int 5)) (Value.Int 1));
  check_bool "select false" true (Value.equal (sel (Value.Int 0)) (Value.Int 2));
  check_bool "not" true
    (Value.equal (Sim.Eval.eval_pure Opcode.Not [ Value.Int 7 ]) Value.zero)

(* ------------------------------------------------------------------ *)
(* Guarded commit semantics through the frontend *)

let test_guarded_store_commit () =
  (* only the taken branch's store commits *)
  check_int "guarded stores" 5
    (ret_int
       {|
int a[2];
int main() {
  int flag;
  flag = 1;
  if (flag) a[0] = 5; else a[0] = 9;
  return a[0];
}
|})

let test_speculative_load_is_harmless () =
  (* the else-branch load executes speculatively from a wild index but is
     never observed *)
  check_int "wild speculative load" 1
    (ret_int
       {|
int a[4];
int main() {
  int flag; int x;
  flag = 1;
  if (flag) x = 1; else x = a[123456789];
  return x;
}
|})

let test_deep_recursion_frames () =
  (* each activation gets its own locals; 40 frames deep *)
  check_int "frame isolation" 820
    (ret_int
       {|
int sum_to(int n) {
  int local[4];
  int r;
  local[0] = n;
  if (n == 0) return 0;
  r = sum_to(n - 1);
  return r + local[0];
}
int main() { return sum_to(40); }
|})

let test_traversal_budget () =
  let prog =
    compile
      "int main() { int i; i = 0; while (i < 1) { i = i * 1; } return 0; }"
  in
  match Sim.Interp.run ~mem_words:1024 ~fuel:10_000 prog with
  | exception Sim.Interp.Sim_error (Sim.Interp.Fuel_exhausted 10_000, ctx)
    ->
      check_bool "context names the function" true (ctx.in_func = Some "main")
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "infinite loop not caught"

let test_eval_error_context () =
  (* a division by zero reaches the caller as a structured Sim_error
     carrying the faulting function and operation *)
  match run_src "int main() { int x; x = 0; return 1 / x; }" with
  | exception Sim.Interp.Sim_error (Sim.Interp.Eval_error _, ctx) ->
      check_bool "context names the function" true (ctx.in_func = Some "main");
      check_bool "context names the op" true (ctx.at_op <> None)
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "division by zero accepted"

(* ------------------------------------------------------------------ *)
(* Timing: hand-built table, checked against a known trace *)

let test_timing_accumulates () =
  let prog = compile "int main() { int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) s = s + i; return s; }" in
  let descr = Spd_machine.Descr.infinite ~mem_latency:2 in
  let timing = Spd_machine.Timing_builder.program descr prog in
  let r = Sim.Interp.run ~timing prog in
  check_int "result" 45 (Value.to_int r.ret);
  check_bool "cycles positive" true (r.cycles > 0);
  (* tighter machine cannot be faster *)
  let narrow =
    Spd_machine.Timing_builder.program (Spd_machine.Descr.fus 1 ~mem_latency:2) prog
  in
  let r1 = Sim.Interp.run ~timing:narrow prog in
  check_bool "1 FU no faster than infinite" true (r1.cycles >= r.cycles)

let test_memory_latency_hurts () =
  let prog =
    compile
      {|
double a[64];
int main() {
  int i; double s;
  s = 0.0;
  for (i = 0; i < 64; i = i + 1) a[i] = i;
  for (i = 0; i < 64; i = i + 1) s = s + a[i];
  return (int)s;
}
|}
  in
  let cycles lat =
    (Sim.Interp.run
       ~timing:
         (Spd_machine.Timing_builder.program
            (Spd_machine.Descr.infinite ~mem_latency:lat)
            prog)
       prog)
      .cycles
  in
  check_bool "6-cycle memory slower than 2-cycle" true (cycles 6 > cycles 2)

(* ------------------------------------------------------------------ *)
(* Profiling *)

let test_profile_exit_counts () =
  let prog =
    compile
      "int main() { int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) s = s + i; return s; }"
  in
  let profile = Sim.Profile.create () in
  ignore (Sim.Interp.run ~profile prog);
  (* the loop tree: 10 back-edge traversals, 1 exit *)
  let main = Prog.find_func prog "main" in
  let loop =
    List.find
      (fun (t : Tree.t) ->
        Array.exists
          (fun (e : Tree.exit) ->
            match e.kind with
            | Tree.Jump { target; _ } -> target = t.id
            | _ -> false)
          t.exits)
      main.trees
  in
  match Sim.Profile.find profile ~func:"main" ~tree_id:loop.id with
  | None -> Alcotest.fail "loop tree not profiled"
  | Some stat ->
      check_int "traversals" 11 stat.traversals;
      check_int "back edge taken" 10 stat.exit_taken.(0);
      check_int "fall through taken" 1 stat.exit_taken.(1);
      check_close "exit probability"
        (10.0 /. 11.0)
        (Sim.Profile.exit_probability profile ~func:"main" ~tree:loop 0)

let test_profile_alias_counts () =
  (* i and j sweep together: a[i] and a[j] alias on every traversal where
     i = j, i.e. always; a[i] and a[i+1] never *)
  let prog =
    compile
      {|
int a[40];
int main() {
  int i;
  for (i = 0; i < 20; i = i + 1) {
    a[i] = i;
    a[i + 1] = a[i] + 1;
  }
  return a[10];
}
|}
  in
  let prog = Spd_analysis.Memarcs.annotate prog in
  let profile = Sim.Profile.create () in
  ignore (Sim.Interp.run ~profile prog);
  let checked = ref 0 in
  Prog.iter_trees
    (fun func (t : Tree.t) ->
      List.iter
        (fun (arc : Memdep.t) ->
          match
            Sim.Profile.alias_probability profile ~func ~tree_id:t.id
              ~src:arc.src ~dst:arc.dst
          with
          | None -> ()
          | Some p ->
              incr checked;
              check_bool "alias probability in [0,1]" true (p >= 0.0 && p <= 1.0))
        t.arcs)
    prog;
  check_bool "some arcs profiled" true (!checked > 0)

let test_output_order () =
  let out =
    output
      {|
int main() {
  int i;
  for (i = 0; i < 3; i = i + 1) print_int(i * i);
  return 0;
}
|}
  in
  Alcotest.(check (list value))
    "squares in order"
    [ Value.Int 0; Value.Int 1; Value.Int 4 ]
    out

(* ------------------------------------------------------------------ *)
(* Replay cache *)

(* every counter a profile holds, flattened for deep equality *)
let profile_summary (p : Sim.Profile.t) =
  Hashtbl.fold
    (fun key (ts : Sim.Profile.tree_stat) acc ->
      let arcs =
        Hashtbl.fold
          (fun arc (a : Sim.Profile.arc_stat) l ->
            (arc, a.Sim.Profile.both_active, a.Sim.Profile.aliased) :: l)
          ts.Sim.Profile.arc_stats []
        |> List.sort compare
      in
      ( key,
        ts.Sim.Profile.traversals,
        Array.to_list ts.Sim.Profile.exit_taken,
        arcs )
      :: acc)
    p []
  |> List.sort compare

let test_replay_byte_identical () =
  (* a cached (hot) run must reproduce the cold run bit for bit: result,
     cycles, every profile counter, every SpD region counter.  'tree'
     aliases on some traversals only, so its SpD predicates flip at run
     time — exactly the case the cache must fall cold on. *)
  List.iter
    (fun name ->
      let w = Spd_workloads.Registry.by_name name in
      let prepared =
        Spd_harness.Pipeline.prepare
          ~config:(Spd_harness.Pipeline.Config.v ~mem_latency:6 ())
          Spd_harness.Pipeline.Spec (compile w.source)
      in
      let timing =
        Spd_machine.Timing_builder.program
          (Spd_machine.Descr.fus 5 ~mem_latency:6)
          prepared.prog
      in
      let run replay =
        let profile = Sim.Profile.create () in
        let spd = Sim.Profile.Spd.create () in
        List.iter
          (fun (a : Spd_core.Heuristic.application) ->
            ignore
              (Sim.Profile.Spd.watch spd ~func:a.func ~tree_id:a.tree_id
                 ~predicate:a.predicate))
          prepared.applications;
        let r = Sim.Interp.run ~timing ~profile ~spd ~replay prepared.prog in
        (r, profile_summary profile, Sim.Profile.Spd.totals spd)
      in
      let cold, cold_profile, cold_spd = run false in
      let hot, hot_profile, hot_spd = run true in
      check_bool (name ^ ": return value identical") true
        (Value.equal cold.Sim.Interp.ret hot.Sim.Interp.ret);
      check_bool (name ^ ": output identical") true
        (cold.Sim.Interp.output = hot.Sim.Interp.output);
      check_int (name ^ ": cycles identical") cold.Sim.Interp.cycles
        hot.Sim.Interp.cycles;
      check_int (name ^ ": traversals identical") cold.Sim.Interp.traversals
        hot.Sim.Interp.traversals;
      check_bool (name ^ ": outcome histograms identical") true
        (cold.Sim.Interp.outcomes = hot.Sim.Interp.outcomes);
      check_bool (name ^ ": profile counters byte-identical") true
        (cold_profile = hot_profile);
      check_bool (name ^ ": SpD totals identical") true (cold_spd = hot_spd))
    [ "tree"; "quick"; "moment" ]

let test_replay_key_packing () =
  let open Sim.Replay in
  (* distinct (taken, gmask) pairs are distinct outcomes, each decoding
     back to its exit and committed store positions *)
  let gstore_pos = [| 1; 3; 5; 7 |] in
  let t = create ~packed:true ~gstore_pos () in
  for taken = 0 to 3 do
    for gmask = 0 to 15 do
      ignore (record t ~taken ~gmask)
    done
  done;
  let outcomes = outcomes t in
  check_int "all pairs distinct" 64 (Array.length outcomes);
  Array.iter
    (fun (o : Sim.Outcomes.outcome) ->
      check_int "one traversal each" 1 o.count;
      check_bool "committed positions are guarded stores" true
        (Array.for_all (fun p -> Array.mem p gstore_pos) o.committed))
    outcomes;
  check_bool "mask bits map to positions" true
    (Array.exists
       (fun (o : Sim.Outcomes.outcome) ->
         o.taken = 2 && o.committed = [| 3; 7 |])
       outcomes)

let test_replay_cacheable_bounds () =
  let open Sim.Replay in
  let stores n = Array.init n Fun.id in
  check_bool "small tree packed" true
    (packed (create ~packed:true ~gstore_pos:(stores 3) ()));
  check_bool "boundary packed" true
    (packed (create ~packed:true ~gstore_pos:(stores max_guarded_stores) ()));
  check_bool "generic-path guarded store not packed" false
    (packed (create ~packed:false ~gstore_pos:(stores 1) ()));
  let n = max_guarded_stores + 1 in
  let over = create ~packed:true ~gstore_pos:(stores n) () in
  check_bool "oversized tree not packed" false (packed over);
  (* the wide key is exact: nothing is dropped or merged *)
  let active = Array.make n false in
  ignore (record_wide over ~taken:0 ~active);
  active.(n - 1) <- true;
  ignore (record_wide over ~taken:0 ~active);
  ignore (record_wide over ~taken:0 ~active);
  ignore (record_wide over ~taken:1 ~active);
  check_bool "wide outcomes counted exactly" true
    (Array.to_list (outcomes over)
    = [
        { Sim.Outcomes.taken = 0; committed = [||]; count = 1 };
        { taken = 0; committed = [| n - 1 |]; count = 2 };
        { taken = 1; committed = [| n - 1 |]; count = 1 };
      ])

let test_replay_entry_cap () =
  let open Sim.Replay in
  let t = create ~max_entries:2 ~packed:true ~gstore_pos:[| 0 |] () in
  let s = { squashed = 0; active_arcs = [||] } in
  let e0 = record t ~taken:0 ~gmask:0 in
  let e1 = record t ~taken:0 ~gmask:1 in
  let e2 = record t ~taken:1 ~gmask:0 in
  remember t e0 s;
  remember t e1 s;
  remember t e2 s;
  check_bool "capped entry dropped" true (summary e2 = None);
  check_bool "early entries kept" true (summary e0 <> None && summary e1 <> None);
  ignore (record t ~taken:1 ~gmask:0);
  check_int "outcome counts are never capped" 4
    (Array.fold_left
       (fun n (o : Sim.Outcomes.outcome) -> n + o.count)
       0 (outcomes t))

(* ------------------------------------------------------------------ *)
(* Timing.charge of the outcome histogram against an independent
   oracle: a per-traversal charge computed here from the traversal-cost
   callback, [max (taken-exit completion, completions of the stores
   active on that traversal)], read straight off the tree. *)

let widths =
  Spd_machine.Descr.[ Fus 1; Fus 3; Fus 5; Fus 8; Infinite ]

(* [tables] timing tables; returns the callback and the per-table
   running sums it accumulates (the callback itself charges 0) *)
let oracle (tables : Sim.Timing.t array) =
  let sums = Array.make (Array.length tables) 0 in
  let trees = Hashtbl.create 64 in
  let cost ~func ~(tree : Tree.t) ~addrs:_ ~active ~taken =
    let tts, stores =
      match Hashtbl.find_opt trees (func, tree.id) with
      | Some x -> x
      | None ->
          let x =
            ( Array.map (fun t -> Sim.Timing.find t ~func ~tree_id:tree.id) tables,
              List.filter
                (fun pos -> Insn.is_store tree.insns.(pos))
                (List.init (Array.length tree.insns) Fun.id) )
          in
          Hashtbl.replace trees (func, tree.id) x;
          x
    in
    Array.iteri
      (fun i (tt : Sim.Timing.tree_timing) ->
        let c =
          List.fold_left
            (fun c pos -> if active.(pos) then max c tt.insn_completion.(pos) else c)
            tt.exit_completion.(taken) stores
        in
        sums.(i) <- sums.(i) + c)
      tts;
    0
  in
  (cost, sums)

(* [prog]'s charge on every (latency, width) equals the oracle's, with
   and without replay, and both runs record the same histogram *)
let check_charge name prog latencies =
  let descrs =
    List.concat_map
      (fun mem_latency ->
        List.map (fun width -> { Spd_machine.Descr.width; mem_latency }) widths)
      latencies
  in
  let tables =
    Array.of_list
      (List.map (fun d -> Spd_machine.Timing_builder.program d prog) descrs)
  in
  let runs =
    List.map
      (fun replay ->
        let cost, sums = oracle tables in
        let r = Sim.Interp.run ~traversal_cost:cost ~replay prog in
        check_int (name ^ ": the oracle charges through its sums") 0 r.cycles;
        List.iteri
          (fun i d ->
            check_int
              (Fmt.str "%s %a replay=%b: charge = oracle" name
                 Spd_machine.Descr.pp d replay)
              sums.(i)
              (Sim.Timing.charge tables.(i) r.outcomes))
          descrs;
        r.outcomes)
      [ true; false ]
  in
  check_bool (name ^ ": replay does not change the histogram") true
    (List.nth runs 0 = List.nth runs 1);
  check_int (name ^ ": run ~timing is run + charge")
    (Sim.Timing.charge tables.(0) (List.hd runs))
    (Sim.Interp.run ~timing:tables.(0) prog).cycles

let test_charge_oracle () =
  let session = Spd_harness.Engine.Session.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Spd_harness.Engine.Session.close session)
  @@ fun () ->
  List.iter
    (fun bench ->
      let prepared latency kind =
        Spd_harness.Engine.Session.prepared session ~bench ~latency kind
      in
      (* NAIVE, STATIC and PERFECT do not depend on the latency: one
         program, charged at both *)
      List.iter
        (fun kind ->
          check_charge
            (bench ^ "/" ^ Spd_harness.Pipeline.name kind)
            (prepared 2 kind).prog [ 2; 6 ])
        Spd_harness.Pipeline.[ Naive; Static; Perfect ];
      List.iter
        (fun latency ->
          check_charge
            (Printf.sprintf "%s/%d/SPEC" bench latency)
            (prepared latency Spd_harness.Pipeline.Spec).prog [ latency ])
        [ 2; 6 ])
    Spd_workloads.Registry.names

(* a loop tree with 45 guarded stores: more than a packed outcome key
   holds, so its outcomes take the wide key *)
let wide_source =
  let ifs =
    List.init 45 (fun k ->
        Printf.sprintf "    if ((i + %d) %% %d == 0) a[%d] = i;" k (k + 2) k)
  in
  Printf.sprintf
    {|int a[64];
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 300; i = i + 1) {
%s
  }
  for (i = 0; i < 64; i = i + 1) s = s + a[i];
  return s;
}
|}
    (String.concat "\n" ifs)

let test_charge_wide_tree () =
  let prog = compile wide_source in
  let guarded (t : Tree.t) =
    Array.fold_left
      (fun n (i : Insn.t) -> if Insn.is_store i && i.guard <> None then n + 1 else n)
      0 t.insns
  in
  let most = ref 0 in
  Prog.iter_trees (fun _ t -> most := max !most (guarded t)) prog;
  check_bool "a tree exceeds the packed key" true
    (!most > Sim.Replay.max_guarded_stores);
  check_charge "wide" prog [ 2; 6 ];
  (* every traversal is counted: no outcome was dropped *)
  let r = Sim.Interp.run prog in
  check_int "histogram counts every traversal" r.traversals
    (List.fold_left (fun n tr -> n + Sim.Outcomes.traversals tr) 0 r.outcomes)

let tests =
  [
    case "eval int ops" test_eval_int;
    case "eval select/not" test_eval_select_not;
    case "guarded store commit" test_guarded_store_commit;
    case "speculative load non-faulting" test_speculative_load_is_harmless;
    case "recursion frames" test_deep_recursion_frames;
    case "traversal budget" test_traversal_budget;
    case "eval error context" test_eval_error_context;
    case "timing accumulates" test_timing_accumulates;
    case "memory latency hurts" test_memory_latency_hurts;
    case "profile exit counts" test_profile_exit_counts;
    case "profile alias counts" test_profile_alias_counts;
    case "output order" test_output_order;
    case "replay cache is byte-identical to cold runs"
      test_replay_byte_identical;
    case "replay key packing is injective" test_replay_key_packing;
    case "replay cacheable bounds" test_replay_cacheable_bounds;
    case "replay entry cap" test_replay_entry_cap;
    case "charge = per-traversal oracle: every workload and pipeline"
      test_charge_oracle;
    case "charge = per-traversal oracle: >40 guarded stores"
      test_charge_wide_tree;
  ]
