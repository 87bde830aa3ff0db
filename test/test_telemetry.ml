(** Telemetry tests: the in-repo JSON codec, span recording and the
    Chrome trace-event document, histogram merge algebra, and the
    determinism of metric snapshots.

    The tracer and the metrics registry are process-global, so these
    tests use their own metric names ([test.telemetry.*]) and bracket
    every tracing test with [Trace.start]/[Trace.stop]. *)

open Util
module Json = Spd_telemetry.Json
module Trace = Spd_telemetry.Trace
module Metrics = Spd_telemetry.Metrics

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("n", Json.Int (-42));
        ("x", Json.Float 1.5);
        ("s", Json.String "a \"quoted\" line\nwith\tescapes \x01");
        ("xs", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Ok doc' -> check_bool "roundtrip" true (doc = doc')
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "parser accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":1} trailing"; "nul"; "\"unterminated"; "1e" ]

let test_json_numbers () =
  check_bool "int stays Int" true (Json.of_string "17" = Ok (Json.Int 17));
  (match Json.of_string "2.5e1" with
  | Ok (Json.Float f) -> check_close "float literal" 25.0 f
  | other ->
      Alcotest.failf "2.5e1 parsed to %s"
        (match other with Ok j -> Json.to_string j | Error e -> e));
  (* non-finite floats must render as null, keeping documents valid *)
  check_bool "nan renders null" true
    (Json.to_string (Json.Float Float.nan) = "null")

(* ------------------------------------------------------------------ *)
(* Tracing *)

let span_named name (e : Trace.event) = e.name = name

let test_span_nesting () =
  Trace.start ();
  Fun.protect ~finally:Trace.stop @@ fun () ->
  let r =
    Trace.with_span ~name:"outer" (fun () ->
        Trace.with_span ~name:"inner"
          ~args:[ ("k", Json.Int 3) ]
          (fun () -> 7))
  in
  check_int "span returns f's value" 7 r;
  let events = Trace.events () in
  let outer =
    match List.find_opt (span_named "outer") events with
    | Some e -> e
    | None -> Alcotest.fail "outer span not recorded"
  and inner =
    match List.find_opt (span_named "inner") events with
    | Some e -> e
    | None -> Alcotest.fail "inner span not recorded"
  in
  (* the inner complete event nests inside the outer one *)
  check_bool "inner begins after outer" true (inner.ts >= outer.ts);
  check_bool "inner ends before outer" true
    (inner.ts +. inner.dur <= outer.ts +. outer.dur +. 1e-6);
  check_bool "inner args kept" true (inner.args = [ ("k", Json.Int 3) ]);
  (* a span records even when its body raises *)
  (try
     Trace.with_span ~name:"raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  check_bool "raising span recorded" true
    (List.exists (span_named "raises") (Trace.events ()))

let test_disabled_tracer_records_nothing () =
  (* not started: with_span must run f and record nothing *)
  check_bool "tracer disabled" false (Trace.enabled ());
  let n0 = List.length (Trace.events ()) in
  check_int "body still runs" 5 (Trace.with_span ~name:"off" (fun () -> 5));
  check_int "nothing recorded" n0 (List.length (Trace.events ()))

(* The Chrome trace-event document must parse with the in-repo reader
   and carry name/ph/ts/dur on every event. *)
let test_trace_json_well_formed () =
  Trace.start ();
  Fun.protect ~finally:Trace.stop @@ fun () ->
  Trace.with_span ~name:"cell:demo" (fun () ->
      Trace.with_span ~name:"stage:simulate" ignore);
  Trace.instant "marker";
  let doc =
    match Json.of_string (Json.to_string (Trace.to_json ())) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  in
  let events =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents list"
  in
  check_int "three events" 3 (List.length events);
  List.iter
    (fun ev ->
      let field name = Option.is_some (Json.member name ev) in
      check_bool "has name" true (field "name");
      check_bool "has ts" true (field "ts");
      check_bool "has dur" true (field "dur");
      check_bool "ph is X" true
        (Option.bind (Json.member "ph" ev) Json.to_string_opt = Some "X"))
    events

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_counter_across_domains () =
  let c = Metrics.counter "test.telemetry.domains" in
  let per_domain = 10_000 in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  List.iter Domain.join ds;
  match List.assoc_opt "test.telemetry.domains" (Metrics.snapshot ()) with
  | Some (Metrics.Counter n) -> check_int "no lost increments" (4 * per_domain) n
  | _ -> Alcotest.fail "counter missing from snapshot"

let test_snapshot_sorted_and_registration_idempotent () =
  ignore (Metrics.counter "test.telemetry.zz");
  ignore (Metrics.counter "test.telemetry.aa");
  let names = List.map fst (Metrics.snapshot ()) in
  check_bool "snapshot sorted by name" true
    (names = List.sort compare names);
  Metrics.incr ~by:3 (Metrics.counter "test.telemetry.aa");
  Metrics.incr ~by:4 (Metrics.counter "test.telemetry.aa");
  check_bool "same handle at every call site" true
    (List.assoc_opt "test.telemetry.aa" (Metrics.snapshot ())
    = Some (Metrics.Counter 7));
  check_bool "kind clash rejected" true
    (match Metrics.histogram ~buckets:[| 1.0 |] "test.telemetry.aa" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* [merge_hist] is the fold {!Metrics.snapshot} runs over per-domain
   shards; with integer-valued observations float addition is exact, so
   associativity holds structurally. *)
let test_histogram_merge_associative () =
  let h ?(buckets = [| 1.0; 2.0; 4.0 |]) counts sum =
    { Metrics.buckets; counts; count = Array.fold_left ( + ) 0 counts; sum }
  in
  let a = h [| 1; 0; 2; 1 |] 14.0
  and b = h [| 0; 3; 0; 0 |] 6.0
  and c = h [| 2; 2; 2; 2 |] 40.0 in
  let l = Metrics.merge_hist (Metrics.merge_hist a b) c
  and r = Metrics.merge_hist a (Metrics.merge_hist b c) in
  check_bool "associative" true (l = r);
  check_int "counts add" (a.count + b.count + c.count) l.count;
  check_close "sums add" (a.Metrics.sum +. b.Metrics.sum +. c.Metrics.sum)
    l.Metrics.sum;
  check_bool "bucket mismatch rejected" true
    (match Metrics.merge_hist a (h ~buckets:[| 1.0; 2.0 |] [| 0; 0; 0 |] 0.0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_histogram_observe () =
  let h =
    Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "test.telemetry.hist.obs"
  in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.0; 100.0 ];
  match List.assoc_opt "test.telemetry.hist.obs" (Metrics.snapshot ()) with
  | Some (Metrics.Hist s) ->
      check_bool "bucket counts" true (s.counts = [| 1; 1; 1; 1 |]);
      check_int "total" 4 s.count;
      check_close "sum" 105.0 s.Metrics.sum
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_snapshot_json_schema () =
  ignore (Metrics.counter "test.telemetry.json.idle_counter");
  ignore (Metrics.histogram ~buckets:[| 1.0 |] "test.telemetry.json.idle");
  let doc = Metrics.snapshot_json (Metrics.snapshot ()) in
  let has section name =
    Option.bind (Json.member section doc) (Json.member name) <> None
  in
  check_bool "an untouched counter is listed" true
    (has "counters" "test.telemetry.json.idle_counter");
  check_bool "an unobserved histogram is left out" false
    (has "histograms" "test.telemetry.json.idle");
  check_bool "spd-metrics/1 schema" true
    (Option.bind (Json.member "schema" doc) Json.to_string_opt
    = Some "spd-metrics/1");
  (* the document must parse with the in-repo reader *)
  check_bool "snapshot JSON parses" true
    (match Json.of_string (Json.to_string doc) with
    | Ok _ -> true
    | Error _ -> false)

(* The disabled fast path: one atomic load per [with_span].  The 5%
   whole-run overhead budget translates to "far below a microsecond per
   call"; assert that very loosely so the check is robust on loaded
   machines. *)
let test_disabled_span_overhead () =
  assert (not (Trace.enabled ()));
  let acc = ref 0 in
  let f () = incr acc in
  let n = 200_000 in
  let time g =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      g ()
    done;
    Unix.gettimeofday () -. t0
  in
  let base = time f in
  let spanned = time (fun () -> Trace.with_span ~name:"off" f) in
  check_int "work done" (2 * n) !acc;
  let per_call = (spanned -. base) /. float_of_int n in
  check_bool
    (Printf.sprintf "disabled span cheap (%.0f ns/call)" (per_call *. 1e9))
    true
    (per_call < 2e-6)

(* ------------------------------------------------------------------ *)
(* Quantiles, Prometheus exposition, the monotonic clock, logging *)

module Clock = Spd_telemetry.Clock
module Log = Spd_telemetry.Log
module Context = Spd_telemetry.Context

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_quantile () =
  let h counts sum =
    {
      Metrics.buckets = [| 1.0; 2.0; 4.0 |];
      counts;
      count = Array.fold_left ( + ) 0 counts;
      sum;
    }
  in
  check_bool "empty histogram has no quantiles" true
    (Metrics.quantile (h [| 0; 0; 0; 0 |] 0.0) 0.5 = None);
  (* 10 observations, all in (1,2]: interpolation inside that bucket *)
  let one = h [| 0; 10; 0; 0 |] 15.0 in
  (match Metrics.quantile one 0.5 with
  | Some v -> check_close "p50 interpolates" 1.5 v
  | None -> Alcotest.fail "p50 missing");
  (match Metrics.quantile one 1.0 with
  | Some v -> check_close "p100 is the bucket's top edge" 2.0 v
  | None -> Alcotest.fail "p100 missing");
  (* q is clamped, not rejected *)
  check_bool "q clamps" true
    (Metrics.quantile one 2.0 = Metrics.quantile one 1.0);
  (* exact bucket edge: 4 obs <= 1.0, 6 above; p40 = right edge of b0 *)
  let edge = h [| 4; 6; 0; 0 |] 10.0 in
  (match Metrics.quantile edge 0.4 with
  | Some v -> check_close "exact edge" 1.0 v
  | None -> Alcotest.fail "edge missing");
  (* everything in the overflow bucket: clamp to the last finite bound *)
  match Metrics.quantile (h [| 0; 0; 0; 5 |] 500.0) 0.99 with
  | Some v -> check_close "overflow clamps to last bound" 4.0 v
  | None -> Alcotest.fail "overflow missing"

(* [snapshot] folds [merge_hist] over the per-domain shards; with
   concurrent writers the merged histogram must neither lose
   observations nor produce an out-of-range quantile. *)
let test_quantile_under_concurrent_observe () =
  let h =
    Metrics.histogram ~buckets:Metrics.time_buckets
      "test.telemetry.hist.concurrent"
  in
  let per_domain = 10_000 in
  let ds =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              (* deterministic spread over (0, 0.1] *)
              let v =
                1e-4 *. float_of_int (1 + (((d * per_domain) + i) mod 1000))
              in
              Metrics.observe h v
            done))
  in
  List.iter Domain.join ds;
  match
    List.assoc_opt "test.telemetry.hist.concurrent" (Metrics.snapshot ())
  with
  | Some (Metrics.Hist s) ->
      check_int "no lost observations" (4 * per_domain) s.count;
      (match Metrics.quantile s 0.5 with
      | Some v -> check_bool "median in range" true (v > 0.0 && v <= 0.1)
      | None -> Alcotest.fail "median missing");
      (match Metrics.quantile s 0.95 with
      | Some v -> check_bool "p95 >= p50" true
          (Some v >= Metrics.quantile s 0.5)
      | None -> Alcotest.fail "p95 missing")
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_hist_json_roundtrip () =
  let h =
    { Metrics.buckets = [| 0.5; 1.0 |]; counts = [| 2; 3; 1 |];
      count = 6; sum = 4.5 }
  in
  (match Metrics.hist_of_json (Metrics.hist_json h) with
  | Some h' -> check_bool "roundtrip" true (h = h')
  | None -> Alcotest.fail "hist_of_json rejected hist_json output");
  check_bool "rejects wrong shape" true
    (Metrics.hist_of_json (Json.Obj []) = None);
  check_bool "rejects count/bucket length mismatch" true
    (Metrics.hist_of_json
       (Json.Obj
          [
            ("buckets", Json.List [ Json.Float 1.0 ]);
            ("counts", Json.List [ Json.Int 1 ]);
          ])
    = None)

let test_prometheus_render () =
  let snap =
    [
      ("test.prom.counter", Metrics.Counter 7);
      ( "test.prom.lat",
        Metrics.Hist
          { Metrics.buckets = [| 0.5; 1.0 |]; counts = [| 2; 3; 1 |];
            count = 6; sum = 4.5 } );
    ]
  in
  let text = Metrics.prometheus snap in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "contains %S" needle) true
        (contains ~needle text))
    [
      "# TYPE test_prom_counter counter\ntest_prom_counter 7\n";
      "# TYPE test_prom_lat histogram\n";
      (* cumulative buckets, mandatory +Inf *)
      "test_prom_lat_bucket{le=\"0.5\"} 2\n";
      "test_prom_lat_bucket{le=\"1\"} 5\n";
      "test_prom_lat_bucket{le=\"+Inf\"} 6\n";
      "test_prom_lat_sum 4.5\n";
      "test_prom_lat_count 6\n";
    ];
  (* dots mangle to underscores; nothing outside [a-zA-Z0-9_:] survives *)
  check_bool "no raw dots in names" true
    (not (contains ~needle:"test.prom" text))

let test_clock_monotonic () =
  let a = Clock.now () in
  let b = Clock.now () in
  check_bool "non-decreasing" true (b >= a);
  (* the wall clock is epoch-based, the monotonic one is not
     necessarily; only the former should look like a modern date *)
  check_bool "wall clock plausible" true (Clock.wall () > 1e9)

let test_context_scoping () =
  check_bool "no ambient rid" true (Context.get () = None);
  let a, b, c =
    Context.with_id "outer" (fun () ->
        let a = Context.get () in
        let b = Context.with_id "inner" (fun () -> Context.get ()) in
        (a, b, Context.get ()))
  in
  check_bool "set inside" true (a = Some "outer");
  check_bool "nested override" true (b = Some "inner");
  check_bool "restored after nesting" true (c = Some "outer");
  check_bool "cleared after" true (Context.get () = None);
  (* restored even when the body raises *)
  (try Context.with_id "boom" (fun () -> failwith "x") with Failure _ -> ());
  check_bool "cleared after raise" true (Context.get () = None)

let test_log_sink () =
  let path = Filename.temp_file "spd_log" ".jsonl" in
  let prev_level = Log.level () in
  Fun.protect ~finally:(fun () ->
      Log.close ();
      Log.set_level prev_level;
      Sys.remove path)
  @@ fun () ->
  Log.set_level Log.Info;
  (match Log.to_file path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "to_file: %s" e);
  let n0 = Log.records () in
  Log.debug "test.below.threshold" [];
  Context.with_id "r-test-1" (fun () ->
      Log.info "test.event" [ ("k", Json.Int 3) ]);
  Log.flush ();
  check_int "only the in-level record counted" (n0 + 1) (Log.records ());
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let line =
    match List.rev lines with
    | l :: _ -> l
    | [] -> Alcotest.fail "log file empty"
  in
  let doc =
    match Json.of_string line with
    | Ok d -> d
    | Error e -> Alcotest.failf "log line is not JSON: %s" e
  in
  let str name = Option.bind (Json.member name doc) Json.to_string_opt in
  check_bool "schema" true (str "schema" = Some Log.schema);
  check_bool "level" true (str "level" = Some "info");
  check_bool "event" true (str "event" = Some "test.event");
  check_bool "ambient rid attached" true (str "rid" = Some "r-test-1");
  check_bool "domain tagged" true
    (Option.is_some (Json.member "domain" doc));
  check_bool "ts present" true
    (match Option.bind (Json.member "ts" doc) Json.to_number with
    | Some ts -> ts > 1e9
    | None -> false);
  check_bool "caller field kept" true
    (Json.member "k" doc = Some (Json.Int 3));
  check_bool "debug below threshold not written" true
    (not (List.exists (contains ~needle:"test.below.threshold") lines))

let test_log_level_parse () =
  check_bool "warn" true (Log.level_of_string "warn" = Ok Log.Warn);
  check_bool "WARNING spelling" true
    (Log.level_of_string "WARNING" = Ok Log.Warn);
  check_bool "debug" true (Log.level_of_string "debug" = Ok Log.Debug);
  check_bool "unknown rejected" true
    (match Log.level_of_string "loud" with Error _ -> true | Ok _ -> false)

let tests =
  [
    case "json roundtrip" test_json_roundtrip;
    case "json rejects garbage" test_json_rejects_garbage;
    case "json numbers" test_json_numbers;
    case "span nesting" test_span_nesting;
    case "disabled tracer records nothing" test_disabled_tracer_records_nothing;
    case "trace document well-formed" test_trace_json_well_formed;
    case "counter across domains" test_counter_across_domains;
    case "snapshot sorted; registration idempotent"
      test_snapshot_sorted_and_registration_idempotent;
    case "histogram merge associative" test_histogram_merge_associative;
    case "histogram observe" test_histogram_observe;
    case "snapshot json schema" test_snapshot_json_schema;
    case "disabled span overhead" test_disabled_span_overhead;
    case "quantile edges" test_quantile;
    case "quantile under concurrent observe"
      test_quantile_under_concurrent_observe;
    case "hist json roundtrip" test_hist_json_roundtrip;
    case "prometheus exposition" test_prometheus_render;
    case "monotonic clock" test_clock_monotonic;
    case "context scoping" test_context_scoping;
    case "log sink" test_log_sink;
    case "log level parse" test_log_level_parse;
  ]
