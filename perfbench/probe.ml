(* The benchmark's probe into the compiler's layers.  It runs outside the
   measured program and calls each layer's public functions directly:

     probe version                       OCaml version the tree was built with
     probe programs SEED COUNT MAX_AMB   the first COUNT seeded [run] programs
                                         for serve-mix with fewer than MAX_AMB
                                         ambiguous arcs after static
                                         disambiguation, one JSON line each,
                                         with the output the unoptimised
                                         lowering observes
     probe layers CACHE_DIR              timed calls into lang, analysis,
                                         disambig, sim and harness, as one
                                         flat JSON object of metric values

   Everything runs on the calling domain (sessions use [~jobs:1]), so the
   probe itself never races on the program's shared state. *)

module W = Spd_workloads
module Engine = Spd_harness.Engine

let now = Unix.gettimeofday

let json_string s =
  let b = Buffer.create (String.length s + 16) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let value_string v = Fmt.str "%a" Spd_ir.Value.pp v

(* ------------------------------------------------------------------ *)
(* serve-mix [run] programs *)

let count_trees f progs =
  List.fold_left
    (fun acc p ->
      let n = ref 0 in
      Spd_ir.Prog.iter_trees (fun _ t -> n := !n + f t) p;
      acc + !n)
    0 progs

let ambiguous_arcs prog =
  let naive = Spd_analysis.Memarcs.annotate (Spd_analysis.Forwarding.run prog) in
  count_trees
    (fun t -> List.length (Spd_ir.Tree.ambiguous_arcs t))
    [ Spd_disambig.Static_disambig.run naive ]

let programs seed count max_ambiguous =
  let rec go case kept =
    if kept < count then begin
      let rand = Random.State.make [| seed; case |] in
      let source = Gen_prog.render (QCheck.Gen.generate1 ~rand Gen_prog.gen_spec) in
      let prog = Spd_lang.Lower.compile source in
      if ambiguous_arcs prog >= max_ambiguous then go (case + 1) kept
      else begin
        let ret, output = Spd_sim.Interp.observe prog in
        Printf.printf "{\"source\":%s,\"return\":%s,\"output\":[%s]}\n"
          (json_string source)
          (json_string (value_string ret))
          (String.concat "," (List.map (fun v -> json_string (value_string v)) output));
        go (case + 1) (kept + 1)
      end
    end
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* per-layer timings *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median wall seconds of one call of [f] over every input, repeated until
   [budget] seconds have passed (at least [min_reps] times). *)
let timed ?(min_reps = 5) ?(budget = 0.3) f inputs =
  let t_end = now () +. budget in
  let rec go n acc =
    if n >= min_reps && now () > t_end then median acc
    else begin
      let t0 = now () in
      List.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
      go (n + 1) ((now () -. t0) :: acc)
    end
  in
  go 0 []

let ms s = s *. 1000.0

let layers cache_dir =
  let sources = List.map (fun (w : W.Workload.t) -> w.source) W.Registry.all in
  let metrics = ref [] in
  let put name v = metrics := (name, v) :: !metrics in
  (* lang *)
  let lowered = List.map Spd_lang.Lower.compile sources in
  let compile_s = timed Spd_lang.Lower.compile sources in
  let ops = count_trees Spd_ir.Tree.size lowered in
  put "lang.compile_ms" (ms compile_s);
  put "lang.ops_per_s" (float_of_int ops /. compile_s);
  (* analysis *)
  let cleanup p = Spd_analysis.Memarcs.annotate (Spd_analysis.Forwarding.run p) in
  let cleaned = List.map cleanup lowered in
  put "analysis.cleanup_ms" (ms (timed cleanup lowered));
  put "analysis.unroll_ms" (ms (timed (Spd_analysis.Unroll.run ?factor:None ?max_tree_size:None) lowered));
  put "analysis.mem_arcs"
    (float_of_int (count_trees (fun t -> List.length t.Spd_ir.Tree.arcs) cleaned));
  (* disambig *)
  let static_run p = Spd_disambig.Static_disambig.run p in
  put "disambig.static_ms" (ms (timed static_run cleaned));
  put "disambig.ambiguous_arcs"
    (float_of_int
       (count_trees
          (fun t -> List.length (Spd_ir.Tree.ambiguous_arcs t))
          (List.map static_run cleaned)));
  (* sim: the check's unit cost and the interpreter's raw throughput *)
  let observe p = Spd_sim.Interp.observe p in
  put "sim.observe_ms" (ms (timed ~min_reps:3 observe cleaned));
  let traversals =
    List.fold_left
      (fun acc p -> acc + (Spd_sim.Interp.run p).Spd_sim.Interp.traversals)
      0 cleaned
  in
  put "sim.traversals_per_s"
    (float_of_int traversals
    /. timed ~min_reps:3 (fun p -> Spd_sim.Interp.run p) cleaned);
  (* harness: each artefact's table build on one fresh sequential session
     with an empty disk cache, in report order, so shared cells are charged
     to the first artefact that needs them *)
  let session = Engine.Session.create ~jobs:1 ~disk_cache:true ~cache_dir () in
  List.iter
    (fun (a : Spd_harness.Artefact.t) ->
      let t0 = now () in
      ignore (Sys.opaque_identity (a.tables session));
      put (Printf.sprintf "harness.artefact.%s_ms" a.name) (ms (now () -. t0)))
    (Spd_harness.Artefact.of_names
       (Spd_harness.Artefact.paper_set @ Spd_harness.Artefact.extension_set));
  (* spd: the heuristic's ledger over the paper grid *)
  let candidates = ref 0 and applied = ref 0 in
  List.iter
    (fun bench ->
      List.iter
        (fun latency ->
          match
            Engine.Session.submit session
              (Engine.Query.v ~bench ~latency Engine.Query.Spd_decisions)
          with
          | Engine.Ok (Engine.Decisions ds) ->
              candidates := !candidates + List.length ds;
              applied :=
                !applied
                + List.length (Spd_core.Heuristic.applied_decisions ds)
          | _ -> failwith ("no decision ledger for " ^ bench))
        [ 2; 6 ])
    W.Registry.names;
  Engine.Session.close session;
  put "spd.candidates" (float_of_int !candidates);
  put "spd.applied" (float_of_int !applied);
  put "spd.applied_share" (float_of_int !applied /. float_of_int !candidates);
  (* harness: one submit served from the now warm disk cache, on a fresh
     session so the memo table is empty *)
  let warm = Engine.Session.create ~jobs:1 ~disk_cache:true ~cache_dir () in
  let queries =
    List.concat_map
      (fun bench ->
        List.concat_map
          (fun latency ->
            List.map
              (fun kind ->
                Engine.Query.v ~bench ~latency
                  (Engine.Query.Cycles
                     { kind; width = Spd_machine.Descr.Fus 5 }))
              Spd_harness.Pipeline.[ Naive; Static; Spec; Perfect ])
          [ 2; 6 ])
      W.Registry.names
  in
  let per_submit =
    List.map
      (fun q ->
        let t0 = now () in
        (match Engine.Session.submit warm q with
        | Engine.Ok _ -> ()
        | Engine.Failed f -> failwith ("warm submit failed: " ^ f.Engine.key));
        now () -. t0)
      queries
  in
  Engine.Session.close warm;
  put "harness.warm_submit_us" (median per_submit *. 1e6);
  print_string "{";
  print_string
    (String.concat ","
       (List.rev_map
          (fun (k, v) -> Printf.sprintf "%s:%.17g" (json_string k) v)
          !metrics));
  print_endline "}"

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "version" ] -> print_endline Sys.ocaml_version
  | [ "programs"; seed; count; max_ambiguous ] ->
      programs (int_of_string seed) (int_of_string count)
        (int_of_string max_ambiguous)
  | [ "layers"; cache_dir ] -> layers cache_dir
  | _ ->
      prerr_endline
        "usage: probe (version | programs SEED COUNT MAX_AMB | layers CACHE_DIR)";
      exit 1
