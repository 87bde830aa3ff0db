(** Robustness tests: deterministic fault injection, contained cell
    failures with retry, and the self-healing on-disk cache. *)

open Util
module H = Spd_harness
module Engine = H.Engine
module Faults = H.Faults

let case name f = Alcotest.test_case name `Quick f

(* moment's Table 6-3 row; raises [Cell_failed] when the cell failed *)
let counts s ~latency =
  Test_harness.ask s ~bench:"moment" ~latency Engine.to_counts
    Engine.Query.Spd_counts

let parse_ok spec =
  match Faults.parse spec with
  | Ok f -> f
  | Error msg -> Alcotest.failf "Faults.parse %S: %s" spec msg

(* ------------------------------------------------------------------ *)

let test_faults_parse () =
  check_bool "none is none" true (Faults.is_none Faults.none);
  check_bool "empty spec is none" true (Faults.is_none (parse_ok ""));
  check_bool "cache-corrupt armed" false
    (Faults.is_none (parse_ok "cache-corrupt:3"));
  check_int "fuel carried" 1234
    (Option.get (Faults.fuel (parse_ok "fuel:1234,cell-raise:adi/2/SPEC")));
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Ok _ -> Alcotest.failf "Faults.parse %S unexpectedly succeeded" bad
      | Error _ -> ())
    [ "bogus"; "cache-corrupt:x"; "cache-corrupt:0"; "fuel:"; "cell-raise:";
      "cell-raise:k@x"; "conn-torn-frame:"; "conn-torn-frame:0";
      "conn-garbage-header:x"; "conn-stall:-1"; "worker-raise:0" ]

let test_conn_faults_parse () =
  let f =
    parse_ok "conn-torn-frame:4,conn-garbage-header:3,conn-stall:2"
  in
  check_bool "chaos budgets arm the spec" false (Faults.is_none f);
  check_int "torn budget" 4 (Faults.conn_torn_frames f);
  check_int "garbage budget" 3 (Faults.conn_garbage_headers f);
  check_int "stall budget" 2 (Faults.conn_stalls f);
  check_int "unarmed budget is zero" 0 (Faults.conn_torn_frames Faults.none)

let test_worker_raise_hook () =
  let f = parse_ok "worker-raise:2" in
  check_bool "worker-raise arms the spec" false (Faults.is_none f);
  let fired = ref 0 in
  for _ = 1 to 5 do
    match Faults.worker_raise f with
    | () -> ()
    | exception Faults.Injected _ -> incr fired
  done;
  check_int "fires exactly its budget" 2 !fired;
  (* a no-fault spec never fires *)
  Faults.worker_raise Faults.none

let test_cell_raise_matching () =
  let f = parse_ok "cell-raise:adi/2/SPEC" in
  check_bool "prefix match raises" true
    (match Faults.cell_raise f ~key:"adi/2/SPEC/summary" with
    | () -> false
    | exception Faults.Injected _ -> true);
  let f = parse_ok "cell-raise:adi/2/SPEC" in
  Faults.cell_raise f ~key:"adi/6/SPEC/summary";
  Faults.cell_raise f ~key:"fft/2/SPEC/summary" (* no match: no raise *)

let test_checker_raise_budget () =
  let f = parse_ok "checker-raise:2" in
  check_bool "checker-raise arms the spec" false (Faults.is_none f);
  let fired = ref 0 in
  for _ = 1 to 5 do
    match Faults.checker_raise f with
    | () -> ()
    | exception Faults.Injected _ -> incr fired
  done;
  check_int "fires exactly its budget" 2 !fired;
  (* a no-fault spec never fires *)
  Faults.checker_raise Faults.none;
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Ok _ -> Alcotest.failf "Faults.parse %S unexpectedly succeeded" bad
      | Error _ -> ())
    [ "checker-raise:"; "checker-raise:0"; "checker-raise:x" ]

(* A raising per-application checker fails only the grid cell whose
   preparation invoked it — the documented {!Spd_core.Heuristic.checker}
   contract: the exception propagates out of [Heuristic.run] and the
   engine's protected runner contains it. *)
let test_checker_raise_contained () =
  let faults = parse_ok "checker-raise:1" in
  let s = Engine.Session.create ~jobs:1 ~faults () in
  Fun.protect ~finally:(fun () -> Engine.Session.close s) @@ fun () ->
  (match
     Engine.Session.submit s
       (Engine.Query.v ~bench:"moment" ~latency:2 Engine.Query.Spd_counts)
   with
  | Engine.Failed f ->
      check_bool "failure key names the SPEC cell" true
        (String.starts_with ~prefix:"moment/2/SPEC" f.Engine.key);
      check_bool "failure is the injected fault" true
        (match f.Engine.exn with
        | Faults.Injected _ -> true
        | _ -> false)
  | Engine.Ok _ -> Alcotest.fail "expected Failed outcome");
  (* the budget is spent: sibling cells run their checkers cleanly *)
  ignore (counts s ~latency:6);
  check_int "only the faulted cell failed" 1
    (List.length (Engine.Session.failures s))

(* And through the report: the faulted cell renders n/a, the appendix
   names the injection, every other cell keeps its value. *)
let test_checker_raise_renders_na () =
  let faults = parse_ok "checker-raise:1" in
  Test_harness.with_session
    (Engine.Session.create ~jobs:1 ~faults ())
    (fun s ->
      let table = Test_harness.pretty s "table6_3" in
      let appendix = Test_harness.render (H.Report.failure_appendix s) in
      check_bool "faulted table renders n/a" true
        (Test_harness.contains table "n/a");
      check_bool "appendix names the fault" true
        (Test_harness.contains appendix "Fault injected");
      check_int "exactly one cell failed" 1
        (List.length (Engine.Session.failures s)))

(* ------------------------------------------------------------------ *)
(* A cell that raises once and then succeeds: with retries=2 the session
   must deliver the clean value and record the retry, not a failure. *)

let test_retry_then_succeed () =
  let clean =
    let s = Engine.Session.create ~jobs:1 () in
    Fun.protect ~finally:(fun () -> Engine.Session.close s) @@ fun () ->
    counts s ~latency:2
  in
  let faults = parse_ok "cell-raise:moment/2/SPEC/summary@1" in
  let s = Engine.Session.create ~jobs:1 ~retries:2 ~faults () in
  Fun.protect ~finally:(fun () -> Engine.Session.close s) @@ fun () ->
  let got = counts s ~latency:2 in
  check_bool "value identical to clean session" true (got = clean);
  let st = Engine.Session.stats s in
  check_int "one retry recorded" 1 st.Engine.Stats.cell_retries;
  check_int "no failure recorded" 0 st.Engine.Stats.cell_failures;
  check_bool "failures list empty" true (Engine.Session.failures s = [])

(* Without a retry budget the same fault becomes a contained failure:
   the outcome is [Failed], and stays [Failed] on a second submit, and
   sibling cells still compute. *)

let test_contained_failure () =
  let faults = parse_ok "cell-raise:moment/2/SPEC/summary" in
  let s = Engine.Session.create ~jobs:1 ~faults () in
  Fun.protect ~finally:(fun () -> Engine.Session.close s) @@ fun () ->
  (match
     Engine.Session.submit s
       (Engine.Query.v ~bench:"moment" ~latency:2 Engine.Query.Spd_counts)
   with
  | Engine.Failed f ->
      check_bool "failure key names the cell" true
        (f.Engine.key = "moment/2/SPEC/summary")
  | Engine.Ok _ -> Alcotest.fail "expected Failed outcome");
  check_bool "a second submit is Failed too" true
    (match counts s ~latency:2 with
    | _ -> false
    | exception Engine.Cell_failed f -> f.Engine.key = "moment/2/SPEC/summary");
  (* the failure was memoized, not recomputed *)
  check_int "one failure recorded" 1
    (Engine.Session.stats s).Engine.Stats.cell_failures;
  (* sibling cells are unaffected *)
  ignore (counts s ~latency:6);
  check_int "sibling cell computed" 1
    (List.length (Engine.Session.failures s))

(* ------------------------------------------------------------------ *)
(* Reports render a failed cell as n/a, append the failure appendix, and
   every other cell still carries its value. *)

let test_report_renders_na () =
  let clean =
    Test_harness.with_session (Engine.Session.create ~jobs:1 ()) (fun s ->
        Test_harness.pretty s "table6_3")
  in
  let faults = parse_ok "cell-raise:moment/2/SPEC" in
  let faulted, appendix =
    Test_harness.with_session
      (Engine.Session.create ~jobs:2 ~faults ())
      (fun s ->
        let table = Test_harness.pretty s "table6_3" in
        let appendix =
          Test_harness.render (H.Report.failure_appendix s)
        in
        (table, appendix))
  in
  check_bool "faulted table renders n/a" true
    (Test_harness.contains faulted "n/a");
  check_bool "clean table has no n/a" false
    (Test_harness.contains clean "n/a");
  check_bool "appendix names the injected cell" true
    (Test_harness.contains appendix "moment/2/SPEC/summary");
  check_bool "appendix names the fault" true
    (Test_harness.contains appendix "Fault injected");
  (* every other row still renders its numbers: the outputs differ only
     on the moment row *)
  let lines s = String.split_on_char '\n' s in
  let diff_rows =
    List.combine (lines clean) (lines faulted)
    |> List.filter (fun (a, b) -> not (String.equal a b))
  in
  (* the moment row goes n/a and TOTAL drops its contribution; every
     other row is untouched *)
  check_int "exactly two rows differ (moment + TOTAL)" 2
    (List.length diff_rows);
  check_bool "the differing rows are moment's and TOTAL" true
    (match diff_rows with
    | [ (a, _); (b, _) ] ->
        Test_harness.contains a "moment" && Test_harness.contains b "TOTAL"
    | _ -> false)

(* The extension studies go through the same contained cells: a fault
   on a grafted or an ablated SPEC cell renders that row n/a, records
   the failure under the cell's variant key and keeps the process
   alive. *)
let test_extension_cell_raise_renders_na () =
  List.iter
    (fun (prefix, artefact) ->
      let faults = parse_ok ("cell-raise:" ^ prefix) in
      Test_harness.with_session (Engine.Session.create ~jobs:2 ~faults ())
      @@ fun s ->
      let a = Option.get (H.Artefact.find artefact) in
      let text =
        String.concat "" (List.map (Fmt.str "%a" H.Table.pp) (a.tables s))
      in
      check_bool (artefact ^ " renders n/a") true
        (Test_harness.contains text "n/a");
      let failures = Engine.Session.failures s in
      check_bool (artefact ^ " records failures") true (failures <> []);
      List.iter
        (fun (f : Engine.failure) ->
          check_bool
            (Printf.sprintf "%s failure key %s names the variant" artefact
               f.Engine.key)
            true
            (String.starts_with ~prefix f.Engine.key))
        failures)
    [
      ("moment/6/SPEC+graft", "ext_grafting");
      ("moment/6/SPEC+me=1+", "ext_params");
    ]

(* ------------------------------------------------------------------ *)
(* The explain path reads the SPEC and STATIC nodes and the SPEC trace
   through [Session.prepared] / [Session.trace], which run under the
   contained-failure runner with the node's key: a failing node is
   recorded once, and surfaces as [Cell_failed] naming the key — exit 2
   on the CLI (never an uncaught exception's 125), an error naming the
   key from the daemon. *)

let spd_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/spd.exe"

(* exit status and stderr of [spd ARGS] *)
let run_spd args =
  let err = Filename.temp_file "spd_faults" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull; Unix.close errfd)
      (fun () ->
        Unix.create_process spd_exe
          (Array.of_list (spd_exe :: args))
          Unix.stdin devnull errfd)
  in
  let status =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (status, In_channel.with_open_bin err In_channel.input_all)

let test_explain_path_contained () =
  List.iter
    (fun key ->
      let faults = parse_ok ("cell-raise:" ^ key) in
      (* in-process: the accessor records the failure under its key *)
      let s = Engine.Session.create ~jobs:1 ~faults () in
      Fun.protect ~finally:(fun () -> Engine.Session.close s) (fun () ->
          (match H.Explain.analyze ~mem_latency:2 s "moment" with
          | _ -> Alcotest.failf "%s: explain succeeded under the fault" key
          | exception Engine.Cell_failed f ->
              Alcotest.(check string) "Cell_failed names the node" key
                f.Engine.key);
          check_bool "recorded as a failure" true
            (List.map (fun (f : Engine.failure) -> f.Engine.key)
               (Engine.Session.failures s)
            = [ key ]));
      (* the CLI: exit 2, the key on stderr *)
      let status, err =
        run_spd [ "explain"; "moment"; "--inject-fault"; "cell-raise:" ^ key ]
      in
      check_int ("spd explain exit status under " ^ key) 2 status;
      check_bool "stderr names the key" true (Test_harness.contains err key);
      (* the daemon: an error response naming the key *)
      let path =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "spd_faults_explain_%d.sock" (Unix.getpid ()))
      in
      let addr = Spd_serve.Protocol.Unix_path path in
      let session = Engine.Session.create ~jobs:1 ~faults () in
      let server = Spd_serve.Server.start ~workers:1 ~session addr in
      Fun.protect
        ~finally:(fun () ->
          Spd_serve.Server.stop server;
          Spd_serve.Server.wait server;
          Engine.Session.close session;
          if Sys.file_exists path then Sys.remove path)
        (fun () ->
          match Spd_serve.Protocol.connect addr with
          | Error e -> Alcotest.failf "connect: %s" e
          | Ok c ->
              Fun.protect
                ~finally:(fun () -> Spd_serve.Protocol.close c)
                (fun () ->
                  match
                    Spd_serve.Protocol.call c "explain"
                      (Spd_telemetry.Json.Obj
                         [ ("workload", Spd_telemetry.Json.String "moment") ])
                  with
                  | Ok _ -> Alcotest.failf "%s: daemon explain succeeded" key
                  | Error e ->
                      check_bool "daemon error names the key" true
                        (Test_harness.contains e key))))
    [ "moment/2/SPEC/prepared"; "moment/2/STATIC/prepared";
      "moment/2/SPEC/trace" ]

(* ------------------------------------------------------------------ *)
(* Self-healing cache: truncate one entry and bit-flip another; a warm
   rerun must detect both, evict, recompute and emit identical bytes. *)

let flip_byte path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b)

let truncate_file path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub s 0 (String.length s / 2)))

let test_cache_self_healing () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spd_heal_test_%d" (Unix.getpid ()))
  in
  Test_harness.rm_rf dir;
  Fun.protect ~finally:(fun () -> Test_harness.rm_rf dir) @@ fun () ->
  let render s = Test_harness.pretty s "table6_3" in
  let cold =
    Test_harness.with_session
      (Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir ())
      render
  in
  let entries =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cache")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  check_bool "cold run wrote cache entries" true (List.length entries >= 2);
  truncate_file (List.nth entries 0);
  flip_byte (List.nth entries 1);
  let s = Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir () in
  let warm = Test_harness.with_session s render in
  let st = Engine.Session.stats s in
  check_int "both corrupt entries evicted" 2 st.Engine.Stats.disk_evictions;
  check_bool "evicted cells recomputed" true
    (st.Engine.Stats.preparations > 0);
  check_bool "healed output bit-identical to cold" true
    (String.equal cold warm);
  (* third run: fully healed, nothing to evict or recompute *)
  let s3 = Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir () in
  let again = Test_harness.with_session s3 render in
  let st3 = Engine.Session.stats s3 in
  check_int "healed cache: no evictions" 0 st3.Engine.Stats.disk_evictions;
  check_int "healed cache: no recomputation" 0 st3.Engine.Stats.preparations;
  check_bool "healed cache output identical" true (String.equal cold again)

(* The cache-corrupt fault: corrupt the Nth cache *read*, so a warm run
   heals exactly that one entry. *)

let test_cache_corrupt_fault () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spd_corrupt_fault_test_%d" (Unix.getpid ()))
  in
  Test_harness.rm_rf dir;
  Fun.protect ~finally:(fun () -> Test_harness.rm_rf dir) @@ fun () ->
  let render s = Test_harness.pretty s "table6_3" in
  let cold =
    Test_harness.with_session
      (Engine.Session.create ~jobs:1 ~disk_cache:true ~cache_dir:dir ())
      render
  in
  let s =
    Engine.Session.create ~jobs:1 ~disk_cache:true ~cache_dir:dir
      ~faults:(parse_ok "cache-corrupt:1") ()
  in
  let warm = Test_harness.with_session s render in
  let st = Engine.Session.stats s in
  check_int "exactly one eviction" 1 st.Engine.Stats.disk_evictions;
  check_bool "output unaffected" true (String.equal cold warm)

let tests =
  [
    case "faults: parse and reject" test_faults_parse;
    case "faults: cell-raise key matching" test_cell_raise_matching;
    case "faults: chaos-client budgets" test_conn_faults_parse;
    case "faults: worker-raise budget" test_worker_raise_hook;
    case "faults: checker-raise budget" test_checker_raise_budget;
    case "engine: checker-raise contained to its cell"
      test_checker_raise_contained;
    case "report: checker-raise renders n/a" test_checker_raise_renders_na;
    case "engine: retry then succeed" test_retry_then_succeed;
    case "engine: contained cell failure" test_contained_failure;
    case "report: n/a cells and failure appendix" test_report_renders_na;
    case "report: extension cells contained"
      test_extension_cell_raise_renders_na;
    case "explain: a failing node is contained under its key"
      test_explain_path_contained;
    case "cache: self-healing after corruption" test_cache_self_healing;
    case "cache: cache-corrupt fault injection" test_cache_corrupt_fault;
  ]
