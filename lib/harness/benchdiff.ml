(** Bench-report regression tracking ([spd bench diff]).

    Compares two [spd-report/1] (or [spd-micro/1]) documents (e.g.
    {e BENCH_REPORT.json} and a snapshot from {e bench/history/}) cell
    by cell, using each table's id to decide what a worsening means:

    - {b lower is better}: [cycles*] (raw cycle counts) and [fig6_4*]
      (code growth);
    - {b higher is better}: [fig6_2*], [fig6_3*] (speedups), [micro*]
      (throughput) and the [ext_*] extension experiments;
    - {b informational}: everything else ([table6_*], [spd_dynamics*],
      …) — changes are reported but never count as regressions;
    - {b skipped}: [timings*] — wall clock is run-dependent by nature.

    A cell {e regresses} when it moves in the bad direction by more than
    the threshold (percent, default 0 — any worsening counts), when a
    tracked value disappears, or when a number turns into [n/a] (the
    cell failed).  An [n/a] turning into a number is an improvement.
    The CLI exits 2 when any cell regresses. *)

module Json = Spd_telemetry.Json

let schema = "spd-bench-diff/1"

type polarity = Lower_better | Higher_better | Informational | Skip

let polarity_of_table id =
  let has_prefix p = String.starts_with ~prefix:p id in
  if has_prefix "timings" then Skip
  else if has_prefix "cycles" || has_prefix "fig6_4" then Lower_better
  else if has_prefix "fig6_2" || has_prefix "fig6_3" || has_prefix "ext_"
          || has_prefix "micro"
  then Higher_better
  else Informational

let polarity_name = function
  | Lower_better -> "lower-better"
  | Higher_better -> "higher-better"
  | Informational -> "informational"
  | Skip -> "skip"

type change = {
  table : string;
  row : string;
  column : string;
  old_value : float option;  (** [None]: missing or non-numeric *)
  new_value : float option;
  polarity : polarity;
  regression : bool;
  improvement : bool;
}

type t = {
  threshold : float;  (** percent *)
  compared : int;  (** numeric cell pairs examined *)
  changes : change list;  (** cells that moved, document order *)
  regressions : int;
  improvements : int;
}

(* ------------------------------------------------------------------ *)
(* Report parsing: (table id, row label, column) -> cell value.
   [Some v] is a numeric cell, [None] an explicitly-present n/a cell
   (JSON null — a failed cell).  Text cells are not tracked. *)

type cells = (string * string * string, float option) Hashtbl.t

let parse_error what = Error (Printf.sprintf "malformed report: %s" what)

let table_cells (acc : cells) tbl =
  match
    ( Option.bind (Json.member "id" tbl) Json.to_string_opt,
      Option.bind (Json.member "columns" tbl) Json.to_list )
  with
  | Some id, Some columns ->
      let columns =
        List.map
          (fun c -> Option.value ~default:"" (Json.to_string_opt c))
          columns
      in
      let rows =
        Option.value ~default:[]
          (Option.bind (Json.member "rows" tbl) Json.to_list)
        @ Option.value ~default:[]
            (Option.bind (Json.member "footers" tbl) Json.to_list)
      in
      List.iter
        (fun row ->
          match
            ( Option.bind (Json.member "label" row) Json.to_string_opt,
              Option.bind (Json.member "cells" row) Json.to_list )
          with
          | Some label, Some cells ->
              List.iteri
                (fun i cell ->
                  match (List.nth_opt columns i, cell) with
                  | Some col, Json.Null ->
                      (* a failed (n/a) cell: present but valueless *)
                      Hashtbl.replace acc (id, label, col) None
                  | Some col, cell -> (
                      match Json.to_number cell with
                      | Some v -> Hashtbl.replace acc (id, label, col) (Some v)
                      | None -> ())
                  | None, _ -> ())
                cells
          | _ -> ())
        rows;
      Ok ()
  | _ -> parse_error "table without id/columns"

(** Flatten a parsed [spd-report/1] or [spd-micro/1] document into its
    tracked cells, remembering table order for deterministic diff
    output. *)
let report_cells (doc : Json.t) : (cells * string list, string) result =
  let acc : cells = Hashtbl.create 256 in
  let order = ref [] in
  let fold_tables rc tables =
    List.fold_left
      (fun rc tbl ->
        Result.bind rc (fun () ->
            (match Option.bind (Json.member "id" tbl) Json.to_string_opt with
            | Some id when not (List.mem id !order) -> order := id :: !order
            | _ -> ());
            table_cells acc tbl))
      rc tables
  in
  let finish = function
    | Ok () -> Ok (acc, List.rev !order)
    | Error e -> Error e
  in
  match Option.bind (Json.member "schema" doc) Json.to_string_opt with
  | Some s when s = Artefact.report_schema -> (
      match Option.bind (Json.member "artefacts" doc) Json.to_list with
      | None -> parse_error "no artefacts list"
      | Some artefacts ->
          finish
            (List.fold_left
               (fun rc artefact ->
                 Result.bind rc (fun () ->
                     fold_tables (Ok ())
                       (Option.value ~default:[]
                          (Option.bind
                             (Json.member "tables" artefact)
                             Json.to_list))))
               (Ok ()) artefacts))
  | Some "spd-micro/1" -> (
      (* microbenchmark documents carry their tables at top level *)
      match Option.bind (Json.member "tables" doc) Json.to_list with
      | None -> parse_error "no tables list"
      | Some tables -> finish (fold_tables (Ok ()) tables))
  | Some s ->
      parse_error
        (Printf.sprintf "expected schema %s or spd-micro/1, got %s"
           Artefact.report_schema s)
  | None -> parse_error "no schema field"

(* ------------------------------------------------------------------ *)
(* Diffing *)

let pct_change ~old_value ~new_value =
  if old_value = 0.0 then
    if new_value > 0.0 then infinity
    else if new_value < 0.0 then neg_infinity
    else 0.0
  else (new_value -. old_value) /. Float.abs old_value *. 100.0

(** Compare two parsed reports.  [threshold] is in percent. *)
let diff ?(threshold = 0.0) (old_doc : Json.t) (new_doc : Json.t) :
    (t, string) result =
  Result.bind (report_cells old_doc) (fun (old_cells, old_order) ->
      Result.bind (report_cells new_doc) (fun (new_cells, _) ->
          let compared = ref 0 in
          let changes = ref [] in
          let keys =
            Hashtbl.fold (fun k _ acc -> k :: acc) old_cells []
            |> List.sort (fun (t1, r1, c1) (t2, r2, c2) ->
                   let oi id =
                     let rec idx i = function
                       | [] -> max_int
                       | x :: tl -> if x = id then i else idx (i + 1) tl
                     in
                     idx 0 old_order
                   in
                   compare (oi t1, t1, r1, c1) (oi t2, t2, r2, c2))
          in
          List.iter
            (fun ((table, row, column) as key) ->
              let polarity = polarity_of_table table in
              if polarity <> Skip then begin
                let tracked =
                  match polarity with
                  | Lower_better | Higher_better -> true
                  | Informational | Skip -> false
                in
                let old_value = Hashtbl.find old_cells key in
                let new_value =
                  (* [None]: the key vanished; [Some None]: an explicit
                     n/a cell — both mean the value is gone *)
                  Option.join (Hashtbl.find_opt new_cells key)
                in
                match (old_value, new_value) with
                | Some old_value, Some new_value ->
                    incr compared;
                    if new_value <> old_value then begin
                      let pct = pct_change ~old_value ~new_value in
                      let beyond = Float.abs pct > threshold in
                      let regression, improvement =
                        match polarity with
                        | Lower_better ->
                            (pct > threshold, beyond && pct < 0.0)
                        | Higher_better ->
                            (pct < -.threshold, beyond && pct > 0.0)
                        | Informational | Skip -> (false, false)
                      in
                      changes :=
                        {
                          table;
                          row;
                          column;
                          old_value = Some old_value;
                          new_value = Some new_value;
                          polarity;
                          regression;
                          improvement;
                        }
                        :: !changes
                    end
                | Some old_value, None ->
                    (* a tracked value disappeared or failed (n/a):
                       regression in polarity tables, informational
                       otherwise *)
                    changes :=
                      {
                        table;
                        row;
                        column;
                        old_value = Some old_value;
                        new_value = None;
                        polarity;
                        regression = tracked;
                        improvement = false;
                      }
                      :: !changes
                | None, Some new_value ->
                    (* an n/a cell now carries a number: the cell was
                       fixed — an improvement in polarity tables *)
                    changes :=
                      {
                        table;
                        row;
                        column;
                        old_value = None;
                        new_value = Some new_value;
                        polarity;
                        regression = false;
                        improvement = tracked;
                      }
                      :: !changes
                | None, None -> () (* n/a on both sides: no movement *)
              end)
            keys;
          let changes = List.rev !changes in
          Ok
            {
              threshold;
              compared = !compared;
              changes;
              regressions =
                List.length (List.filter (fun c -> c.regression) changes);
              improvements =
                List.length (List.filter (fun c -> c.improvement) changes);
            }))

let diff_strings ?threshold ~old_report ~new_report () : (t, string) result =
  Result.bind
    (Result.map_error
       (fun e -> "old report: " ^ e)
       (Json.of_string old_report))
    (fun old_doc ->
      Result.bind
        (Result.map_error
           (fun e -> "new report: " ^ e)
           (Json.of_string new_report))
        (fun new_doc -> diff ?threshold old_doc new_doc))

(* ------------------------------------------------------------------ *)
(* Rendering *)

let opt_cell = function Some v -> Table.Num v | None -> Table.Na

let to_table (t : t) : Table.t =
  let rows =
    List.map
      (fun c ->
        Table.row
          (Printf.sprintf "%s/%s/%s" c.table c.row c.column)
          [
            opt_cell c.old_value;
            opt_cell c.new_value;
            (match (c.old_value, c.new_value) with
            | Some o, Some n -> Table.Pct (pct_change ~old_value:o ~new_value:n /. 100.0)
            | _ -> Table.Na);
            Table.Text (polarity_name c.polarity);
            Table.Text
              (if c.regression then "REGRESSION"
               else if c.improvement then "improved"
               else "");
          ])
      t.changes
  in
  let footers =
    [
      Table.row "compared" [ Table.Int t.compared; Table.Na; Table.Na; Table.Na; Table.Na ];
      Table.row "regressions"
        [ Table.Int t.regressions; Table.Na; Table.Na; Table.Na; Table.Na ];
      Table.row "improvements"
        [ Table.Int t.improvements; Table.Na; Table.Na; Table.Na; Table.Na ];
    ]
  in
  Table.v ~id:"bench_diff"
    ~title:
      (Printf.sprintf "Bench report diff (threshold %.3g%%)" t.threshold)
    ~notes:
      (if t.changes = [] then [ "no cell moved" ]
       else
         [
           "only cells that moved are listed; polarity decides whether \
            a move counts as a regression";
         ])
    ~label_header:"table/row/column"
    ~columns:[ "old"; "new"; "change"; "polarity"; "verdict" ]
    ~footers rows

let change_json (c : change) =
  let num = function Some v -> Json.Float v | None -> Json.Null in
  Json.Obj
    [
      ("table", Json.String c.table);
      ("row", Json.String c.row);
      ("column", Json.String c.column);
      ("old", num c.old_value);
      ("new", num c.new_value);
      ( "change_pct",
        match (c.old_value, c.new_value) with
        | Some o, Some n -> Json.Float (pct_change ~old_value:o ~new_value:n)
        | _ -> Json.Null );
      ("polarity", Json.String (polarity_name c.polarity));
      ("regression", Json.Bool c.regression);
      ("improvement", Json.Bool c.improvement);
    ]

let to_json (t : t) : Json.t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("threshold_pct", Json.Float t.threshold);
      ("compared", Json.Int t.compared);
      ("regressions", Json.Int t.regressions);
      ("improvements", Json.Int t.improvements);
      ("changes", Json.List (List.map change_json t.changes));
    ]

let render format ppf (t : t) =
  Artefact.render_doc format ppf
    ~tables:(fun () -> [ to_table t ])
    ~json:(fun () -> to_json t)
