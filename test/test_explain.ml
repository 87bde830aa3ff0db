(** Schedule introspection, critical-path attribution and the bench
    regression tracker.

    The load-bearing invariants:

    - the per-region cycle attribution of [spd explain] sums {e exactly}
      to the simulator's reported cycle count (ISSUE 4 acceptance);
    - a critical-path attribution is a disjoint tiling of
      [0, makespan), so its category totals sum to the makespan;
    - occupancy grids place every op exactly once, within the machine
      width;
    - [Benchdiff] regresses exactly when a tracked value moves in the
      bad direction beyond the threshold (or disappears);
    - [Table] CSV output round-trips per RFC 4180;
    - [Trace.capture] writes a parseable trace even when the traced
      function raises. *)

open Util
module Schedule = Spd_machine.Schedule
module Critpath = Spd_machine.Critpath
module Ddg = Spd_analysis.Ddg
module Explain = Spd_harness.Explain
module Benchdiff = Spd_harness.Benchdiff
module Faults = Spd_harness.Faults
module Table = Spd_harness.Table
module Json = Spd_telemetry.Json

let case name f = Alcotest.test_case name `Quick f

let explained = Hashtbl.create 4

(* Explain.analyze runs the full pipeline + simulator; share one
   analysis per workload across the tests below. *)
let explain name =
  match Hashtbl.find_opt explained name with
  | Some t -> t
  | None ->
      let t =
        Test_harness.with_session
          (Spd_harness.Engine.Session.create ~jobs:1 ())
          (fun s -> Explain.analyze s name)
      in
      Hashtbl.add explained name t;
      t

(* ------------------------------------------------------------------ *)
(* Attribution sums *)

let test_region_cycles_sum_to_total () =
  List.iter
    (fun name ->
      let t = explain name in
      let sum =
        List.fold_left (fun acc v -> acc + v.Explain.cycles) 0 t.Explain.trees
      in
      check_int (name ^ ": region cycles sum to simulator total")
        t.Explain.total_cycles sum;
      let trav =
        List.fold_left
          (fun acc v -> acc + v.Explain.traversals)
          0 t.Explain.trees
      in
      check_int (name ^ ": region traversals sum to simulator total")
        t.Explain.total_traversals trav)
    [ "matmul300"; "moment" ]

let test_critpath_tiles_makespan () =
  List.iter
    (fun name ->
      let t = explain name in
      List.iter
        (fun v ->
          let cp = v.Explain.critpath in
          let where =
            Printf.sprintf "%s %s/%d" name v.Explain.func
              v.Explain.tree.Spd_ir.Tree.id
          in
          check_int (where ^ ": span matches schedule")
            v.Explain.schedule.Schedule.span cp.Critpath.span;
          let steps =
            List.sort
              (fun (a : Critpath.step) b -> compare a.lo b.lo)
              cp.Critpath.steps
          in
          (* disjoint, contiguous, tiling [0, span) *)
          let last =
            List.fold_left
              (fun edge (st : Critpath.step) ->
                check_int (where ^ ": steps are contiguous") edge st.lo;
                check_bool (where ^ ": step is non-empty") true (st.hi > st.lo);
                st.hi)
              0 steps
          in
          check_int (where ^ ": steps end at the makespan") cp.Critpath.span
            last;
          (* category totals are the same partition, summed *)
          let by_cat =
            List.fold_left
              (fun acc (_, n) -> acc + n)
              0 cp.Critpath.by_category
          in
          check_int (where ^ ": category totals sum to makespan")
            cp.Critpath.span by_cat;
          List.iter
            (fun c ->
              check_bool
                (where ^ ": every category is listed")
                true
                (List.mem_assoc c cp.Critpath.by_category))
            [
              Critpath.Ambiguous_mem; Critpath.Dataflow; Critpath.Resource;
              Critpath.Branch;
            ])
        t.Explain.trees)
    [ "matmul300"; "moment" ]

(* ------------------------------------------------------------------ *)
(* Occupancy grids *)

let test_occupancy_grid_consistent () =
  let t = explain "matmul300" in
  List.iter
    (fun v ->
      let s = v.Explain.schedule in
      let where =
        Printf.sprintf "%s/%d" v.Explain.func v.Explain.tree.Spd_ir.Tree.id
      in
      let grid = Schedule.occupancy s in
      check_int (where ^ ": one grid row per schedule cycle")
        s.Schedule.length (Array.length grid);
      let seen = Hashtbl.create 16 in
      Array.iteri
        (fun cycle slots ->
          check_int (where ^ ": machine width respected")
            (Schedule.n_fus s) (Array.length slots);
          Array.iteri
            (fun fu -> function
              | None -> ()
              | Some node ->
                  check_bool (where ^ ": node placed once") false
                    (Hashtbl.mem seen node);
                  Hashtbl.add seen node (cycle, fu);
                  let op = s.Schedule.ops.(node) in
                  check_int (where ^ ": grid row is the issue cycle")
                    op.Schedule.issue cycle;
                  check_int (where ^ ": grid column is the FU")
                    op.Schedule.fu fu)
            slots)
        grid;
      Array.iteri
        (fun node (op : Schedule.op) ->
          check_bool (where ^ ": every op appears in the grid") true
            (Hashtbl.mem seen node);
          check_bool (where ^ ": slack is non-negative") true
            (op.Schedule.slack >= 0);
          check_bool (where ^ ": FU slot within the machine") true
            (op.Schedule.fu >= 0 && op.Schedule.fu < Schedule.n_fus s))
        s.Schedule.ops)
    t.Explain.trees

(* ------------------------------------------------------------------ *)
(* ALAP / slack *)

let test_alap_slack_sanity () =
  let w = Spd_workloads.Registry.by_name "moment" in
  let prog = compile w.source in
  Spd_ir.Prog.iter_trees
    (fun _ tree ->
      let g = Ddg.build ~mem_latency:2 tree in
      let span = Ddg.span g in
      let asap = Ddg.asap g in
      let alap = Ddg.alap g ~span in
      let slack = Ddg.slack g in
      let n = Ddg.n_nodes g in
      let min_slack = ref max_int in
      for node = 0 to n - 1 do
        check_bool "alap never precedes asap" true (alap.(node) >= asap.(node));
        check_int "slack is alap - asap"
          (alap.(node) - asap.(node))
          slack.(node);
        check_bool "no completion exceeds the span" true
          (alap.(node) + Ddg.node_latency g node <= span);
        min_slack := min !min_slack slack.(node)
      done;
      if n > 0 then
        check_int "a critical (zero-slack) path exists" 0 !min_slack)
    prog

(* ------------------------------------------------------------------ *)
(* SpD provenance *)

let test_provenance_disjoint () =
  let t = explain "matmul300" in
  check_bool "matmul300 has SpD applications" true
    (t.Explain.applications <> []);
  List.iter
    (fun (a : Spd_core.Heuristic.application) ->
      check_bool "alias version ops recorded" true (a.alias_insns <> []);
      List.iter
        (fun id ->
          check_bool "alias and no-alias op sets are disjoint" false
            (List.mem id a.noalias_insns))
        a.alias_insns)
    t.Explain.applications

let test_grid_marks_spd_versions () =
  (* scale tree 1 is matmul300's transformed region: its grid must
     carry both version annotations *)
  let t = explain "matmul300" in
  match Explain.selected ~fn:"scale" ~tree:1 t with
  | [ v ] ->
      let tbl = Explain.grid_table t v in
      let cells =
        List.concat_map
          (fun (r : Table.row) ->
            List.filter_map
              (function Table.Text s -> Some s | _ -> None)
              r.Table.cells)
          tbl.Table.rows
      in
      let has mark =
        List.exists
          (fun s ->
            match String.index_opt s '[' with
            | Some i -> String.length s > i + 1 && s.[i + 1] = mark
            | None -> false)
          cells
      in
      check_bool "alias versions annotated" true (has 'a');
      check_bool "static span recorded" true (v.Explain.static_span <> None)
  | vs ->
      Alcotest.failf "expected exactly one scale/1 tree, got %d"
        (List.length vs)

(* ------------------------------------------------------------------ *)
(* Benchdiff *)

(* a minimal spd-report/1 document with one table; cells are raw JSON
   values so the n/a ([null]) encoding is testable too *)
let report_cells ~table_id rows =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "spd-report/1");
         ( "artefacts",
           Json.List
             [
               Json.Obj
                 [
                   ("name", Json.String "unit");
                   ( "tables",
                     Json.List
                       [
                         Json.Obj
                           [
                             ("id", Json.String table_id);
                             ("title", Json.String "unit");
                             ("columns", Json.List [ Json.String "v" ]);
                             ( "rows",
                               Json.List
                                 (List.map
                                    (fun (label, v) ->
                                      Json.Obj
                                        [
                                          ("label", Json.String label);
                                          ("cells", Json.List [ v ]);
                                        ])
                                    rows) );
                           ];
                       ] );
                 ];
             ] );
       ])

let report ~table_id rows =
  report_cells ~table_id
    (List.map (fun (label, v) -> (label, Json.Float v)) rows)

let diff_exn ?threshold ~table_id old_rows new_rows =
  match
    Benchdiff.diff_strings ?threshold
      ~old_report:(report ~table_id old_rows)
      ~new_report:(report ~table_id new_rows)
      ()
  with
  | Ok d -> d
  | Error e -> Alcotest.failf "diff failed: %s" e

let test_benchdiff_identical () =
  let d =
    diff_exn ~table_id:"cycles.lat2" [ ("a", 100.0) ] [ ("a", 100.0) ]
  in
  check_int "no regressions" 0 d.Benchdiff.regressions;
  check_int "no changes" 0 (List.length d.Benchdiff.changes);
  check_int "one cell compared" 1 d.Benchdiff.compared

let test_benchdiff_polarity () =
  (* cycles go up: lower-better -> regression *)
  let d = diff_exn ~table_id:"cycles.lat2" [ ("a", 100.0) ] [ ("a", 110.0) ] in
  check_int "cycle increase regresses" 1 d.Benchdiff.regressions;
  (* cycles go down: improvement *)
  let d = diff_exn ~table_id:"cycles.lat2" [ ("a", 100.0) ] [ ("a", 90.0) ] in
  check_int "cycle decrease is no regression" 0 d.Benchdiff.regressions;
  check_int "cycle decrease improves" 1 d.Benchdiff.improvements;
  (* speedups go down: higher-better -> regression *)
  let d = diff_exn ~table_id:"fig6_2.lat2" [ ("a", 1.5) ] [ ("a", 1.2) ] in
  check_int "speedup drop regresses" 1 d.Benchdiff.regressions;
  (* informational tables report but never regress *)
  let d = diff_exn ~table_id:"table6_3" [ ("a", 5.0) ] [ ("a", 9.0) ] in
  check_int "informational never regresses" 0 d.Benchdiff.regressions;
  check_int "informational change still listed" 1
    (List.length d.Benchdiff.changes);
  (* wall clock is skipped entirely *)
  let d = diff_exn ~table_id:"timings" [ ("a", 5.0) ] [ ("a", 50.0) ] in
  check_int "timings are skipped" 0 d.Benchdiff.compared;
  check_int "timings never change" 0 (List.length d.Benchdiff.changes)

let test_benchdiff_threshold () =
  let run threshold = diff_exn ~threshold ~table_id:"cycles.lat2"
      [ ("a", 100.0) ] [ ("a", 105.0) ]
  in
  check_int "5% over a 10% threshold passes" 0 (run 10.0).Benchdiff.regressions;
  check_int "5% over a 4% threshold regresses" 1
    (run 4.0).Benchdiff.regressions

let test_benchdiff_missing_value () =
  let d =
    diff_exn ~table_id:"cycles.lat2"
      [ ("a", 100.0); ("b", 50.0) ]
      [ ("a", 100.0) ]
  in
  check_int "a vanished tracked value regresses" 1 d.Benchdiff.regressions

let test_benchdiff_na_transitions () =
  (* the Table CSV/JSON n/a encoding ([null] cells) must agree with the
     tracker: a cell coming back to life is an improvement, a cell dying
     is a regression, and n/a on both sides is no change at all *)
  let diff old_cell new_cell =
    match
      Benchdiff.diff_strings
        ~old_report:(report_cells ~table_id:"cycles.lat2" [ ("a", old_cell) ])
        ~new_report:(report_cells ~table_id:"cycles.lat2" [ ("a", new_cell) ])
        ()
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "diff failed: %s" e
  in
  let d = diff Json.Null (Json.Float 100.0) in
  check_int "n/a -> number is no regression" 0 d.Benchdiff.regressions;
  check_int "n/a -> number improves" 1 d.Benchdiff.improvements;
  (match d.Benchdiff.changes with
  | [ c ] ->
      check_bool "old side reported as n/a" true (c.Benchdiff.old_value = None);
      check_bool "new side carries the number" true
        (c.Benchdiff.new_value = Some 100.0)
  | cs -> Alcotest.failf "expected one change, got %d" (List.length cs));
  let d = diff (Json.Float 100.0) Json.Null in
  check_int "number -> n/a regresses" 1 d.Benchdiff.regressions;
  check_int "number -> n/a is no improvement" 0 d.Benchdiff.improvements;
  let d = diff Json.Null Json.Null in
  check_int "n/a -> n/a is no change" 0 (List.length d.Benchdiff.changes);
  check_int "n/a -> n/a never regresses" 0 d.Benchdiff.regressions

let test_benchdiff_rejects_garbage () =
  (match Benchdiff.diff_strings ~old_report:"{}" ~new_report:"{}" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "schema-less documents must be rejected");
  match Benchdiff.diff_strings ~old_report:"nope" ~new_report:"{}" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-JSON must be rejected"

let test_pct_change_zero_base () =
  check_bool "growth from zero is +inf" true
    (Benchdiff.pct_change ~old_value:0.0 ~new_value:1.0 = infinity);
  check_bool "no change at zero is 0" true
    (Benchdiff.pct_change ~old_value:0.0 ~new_value:0.0 = 0.0);
  check_bool "10% growth" true
    (abs_float (Benchdiff.pct_change ~old_value:100.0 ~new_value:110.0 -. 10.0)
    < 1e-9)

(* ------------------------------------------------------------------ *)
(* cycles-inflate fault *)

let test_cycles_inflate_fault () =
  (match Faults.parse "cycles-inflate:10" with
  | Ok f ->
      check_int "exact 10% inflation" 110 (Faults.inflate_cycles f 100);
      check_int "fractional cycles round up" 61 (Faults.inflate_cycles f 55)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  check_int "no fault is identity" 123 (Faults.inflate_cycles Faults.none 123);
  match Faults.parse "cycles-inflate:-3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative inflation must be rejected"

(* ------------------------------------------------------------------ *)
(* Table CSV escaping: RFC 4180 round-trip *)

(* a small RFC 4180 reader: quoted fields may contain commas, newlines
   and doubled quotes *)
let parse_csv (s : string) : string list list =
  let records = ref [] and fields = ref [] and buf = Buffer.create 16 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_record () =
    flush_field ();
    records := List.rev !fields :: !records;
    fields := []
  in
  let n = String.length s in
  let rec plain i =
    if i >= n then (if !fields <> [] || Buffer.length buf > 0 then flush_record ())
    else
      match s.[i] with
      | ',' -> flush_field (); plain (i + 1)
      | '\n' -> flush_record (); plain (i + 1)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c -> Buffer.add_char buf c; plain (i + 1)
  and quoted i =
    if i >= n then failwith "unterminated quoted field"
    else
      match s.[i] with
      | '"' when i + 1 < n && s.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted (i + 2)
      | '"' -> plain (i + 1)
      | c -> Buffer.add_char buf c; quoted (i + 1)
  in
  plain 0;
  List.rev !records

let test_csv_round_trip () =
  let tricky =
    [ "comma, inside"; "quote \" inside"; "newline\ninside"; "plain";
      "both \"and\",\nworse" ]
  in
  let tbl =
    Table.v ~id:"csv,test" ~title:"unit" ~columns:[ "va,l"; "w" ]
      (List.map (fun s -> Table.row s [ Table.Text s; Table.Int 7 ]) tricky)
  in
  let doc = String.concat "\n" (Table.to_csv_lines tbl) in
  let records = parse_csv doc in
  check_int "one record per cell"
    (2 * List.length tricky)
    (List.length records);
  List.iteri
    (fun i record ->
      let label = List.nth tricky (i / 2) in
      match record with
      | [ table; row; column; value ] ->
          check_int "four fields per record" 4 (List.length record);
          Alcotest.(check string) "table id round-trips" "csv,test" table;
          Alcotest.(check string) "row label round-trips" label row;
          if i mod 2 = 0 then begin
            Alcotest.(check string) "column round-trips" "va,l" column;
            Alcotest.(check string) "text cell round-trips" label value
          end
          else Alcotest.(check string) "int cell round-trips" "7" value
      | r -> Alcotest.failf "record %d has %d fields" i (List.length r))
    records

let test_csv_na_cell () =
  (* a failed grid cell must render as n/a in the CSV — identically to
     the pretty grid — so a reader can tell it from an empty string, and
     so `spd bench diff` sees the same encoding in both formats *)
  let tbl =
    Table.v ~id:"na" ~title:"unit" ~columns:[ "v" ]
      [ Table.row "dead" [ Table.Na ]; Table.row "live" [ Table.Num 1.5 ] ]
  in
  match parse_csv (String.concat "\n" (Table.to_csv_lines tbl)) with
  | [ [ _; "dead"; "v"; na ]; [ _; "live"; "v"; live ] ] ->
      Alcotest.(check string) "Na encodes as n/a in CSV" "n/a" na;
      Alcotest.(check string)
        "CSV n/a matches the pretty rendering"
        (Table.cell_text Table.Na) na;
      Alcotest.(check string) "numbers keep full precision" "1.5" live
  | records -> Alcotest.failf "unexpected CSV shape (%d records)"
                 (List.length records)

(* ------------------------------------------------------------------ *)
(* Crash-safe tracing *)

let test_trace_capture_on_raise () =
  let path = Filename.temp_file "spd_trace" ".json" in
  (match
     Spd_telemetry.Trace.capture (Some path) (fun () ->
         Spd_telemetry.Trace.instant "before-crash";
         failwith "boom")
   with
  | () -> Alcotest.fail "exception must propagate"
  | exception Failure _ -> ());
  let ic = open_in_bin path in
  let doc =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  match Json.of_string doc with
  | Ok json ->
      check_bool "trace document has events" true
        (Option.bind (Json.member "traceEvents" json) Json.to_list <> None)
  | Error e -> Alcotest.failf "trace not parseable after crash: %s" e

let tests =
  [
    case "region cycle attribution sums to the simulator total"
      test_region_cycles_sum_to_total;
    case "critical-path steps tile the makespan" test_critpath_tiles_makespan;
    case "occupancy grids are consistent" test_occupancy_grid_consistent;
    case "alap/slack sanity" test_alap_slack_sanity;
    case "SpD provenance version sets are disjoint" test_provenance_disjoint;
    case "grids annotate SpD versions" test_grid_marks_spd_versions;
    case "benchdiff: identical reports" test_benchdiff_identical;
    case "benchdiff: polarity by table id" test_benchdiff_polarity;
    case "benchdiff: threshold" test_benchdiff_threshold;
    case "benchdiff: missing value regresses" test_benchdiff_missing_value;
    case "benchdiff: n/a transitions" test_benchdiff_na_transitions;
    case "benchdiff: malformed reports rejected" test_benchdiff_rejects_garbage;
    case "benchdiff: relative change at zero base" test_pct_change_zero_base;
    case "faults: cycles-inflate" test_cycles_inflate_fault;
    case "table: CSV round-trips per RFC 4180" test_csv_round_trip;
    case "table: CSV n/a encoding matches the grid" test_csv_na_cell;
    case "trace: capture survives a crash" test_trace_capture_on_raise;
  ]
