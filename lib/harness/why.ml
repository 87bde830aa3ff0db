(** Decision-ledger introspection ([spd why]).

    For one workload at one memory latency, reads the guidance
    heuristic's decision ledger through the engine's single request
    path ({!Engine.Query.Spd_decisions}) and renders it as data: per
    tree, every candidate ambiguous arc with its [Gain()] numbers, the
    static-disambiguation provenance that left the arc ambiguous, the
    budgets in force and the verdict; plus a program-wide summary with
    the rejection-reason histogram.

    The same document backs the [spd why] CLI, the daemon's [why]
    method and the [spd report spd-decisions] rollup, so the three
    surfaces cannot drift apart: they all read the same memoized cell
    and serialize it with the same code. *)

module Json = Spd_telemetry.Json
module H = Spd_core.Heuristic
module Memdep = Spd_ir.Memdep
module W = Spd_workloads

let schema = "spd-decisions/1"

type t = {
  workload : string;
  mem_latency : int;
  decisions : H.decision list;  (** the full ledger, in ledger order *)
}

(** Fetch the SPEC pipeline's decision ledger for [workload].  Raises
    [Invalid_argument] for an unknown workload name and
    {!Engine.Cell_failed} when the cell failed. *)
let analyze ?(mem_latency = 2) session workload : t =
  ignore (W.Registry.by_name workload);
  match
    Engine.to_decisions
      (Engine.Session.submit session
         (Engine.Query.v ~bench:workload ~latency:mem_latency
            Engine.Query.Spd_decisions))
  with
  | Engine.Ok decisions -> { workload; mem_latency; decisions }
  | Engine.Failed f -> raise (Engine.Cell_failed f)

let selected ?fn ?tree (t : t) : H.decision list =
  List.filter
    (fun (d : H.decision) ->
      (match fn with Some f -> f = d.H.func | None -> true)
      && match tree with Some id -> id = d.H.tree_id | None -> true)
    t.decisions

(** Ledger entries grouped per (function, tree id), both group order
    and entries within a group preserving ledger order. *)
let groups (ds : H.decision list) : ((string * int) * H.decision list) list =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (d : H.decision) ->
      let k = (d.H.func, d.H.tree_id) in
      (match Hashtbl.find_opt tbl k with
      | None ->
          order := k :: !order;
          Hashtbl.add tbl k (ref [ d ])
      | Some r -> r := d :: !r))
    ds;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

let kind_name = function
  | Memdep.Raw -> "raw"
  | Memdep.War -> "war"
  | Memdep.Waw -> "waw"

(* ------------------------------------------------------------------ *)
(* JSON *)

let decision_json (d : H.decision) : Json.t =
  Json.Obj
    [
      ("src", Json.Int (fst d.H.arc));
      ("dst", Json.Int (snd d.H.arc));
      ("kind", Json.String (kind_name d.H.kind));
      ( "ambiguity",
        match d.H.ambiguity with
        | Some a -> Json.String (Memdep.ambiguity_name a)
        | None -> Json.Null );
      ("before", Json.Float d.H.before);
      ("after", Json.Float d.H.after);
      ("gain", Json.Float d.H.gain);
      ("min_gain", Json.Float d.H.min_gain);
      ("tree_size", Json.Int d.H.tree_size);
      ("max_size", Json.Int d.H.max_size);
      ( "profile",
        Json.String (if d.H.profiled then "profiled" else "uniform") );
      ("verdict", Json.String (H.verdict_name d.H.verdict));
    ]

let histogram_json ds =
  Json.Obj
    (List.map (fun (k, n) -> (k, Json.Int n)) (H.rejection_histogram ds))

(** The per-workload [spd-decisions/1] document: aggregate counts and
    the rejection histogram at the top, then the ledger grouped per
    tree.  Filters narrow both forms consistently. *)
let to_json ?fn ?tree (t : t) : Json.t =
  let ds = selected ?fn ?tree t in
  let applied = List.length (H.applied_decisions ds) in
  let total = List.length ds in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("workload", Json.String t.workload);
      ("mem_latency", Json.Int t.mem_latency);
      ("candidates", Json.Int total);
      ("applied", Json.Int applied);
      ("rejected", Json.Int (total - applied));
      ("rejections", histogram_json ds);
      ( "trees",
        Json.List
          (List.map
             (fun ((func, tree_id), ds) ->
               Json.Obj
                 [
                   ("func", Json.String func);
                   ("tree", Json.Int tree_id);
                   ("candidates", Json.Int (List.length ds));
                   ("decisions", Json.List (List.map decision_json ds));
                 ])
             (groups ds)) );
    ]

(* ------------------------------------------------------------------ *)
(* Tables *)

let verdict_cell (d : H.decision) = Table.Text (H.verdict_name d.H.verdict)

let decisions_table (t : t) (((func, tree_id), ds) : _ * H.decision list) :
    Table.t =
  Table.v
    ~id:(Printf.sprintf "why.decisions.%s.%d" func tree_id)
    ~title:
      (Printf.sprintf "SpD decisions %s tree %d (%d-cycle memory)" func
         tree_id t.mem_latency)
    ~notes:
      [
        "one row per candidate ambiguous arc the heuristic judged;";
        "before/after: expected traversal time with/without the arc;";
        "ambiguity: which static test left the arc ambiguous";
      ]
    ~label_header:"arc"
    ~columns:
      [
        "kind"; "ambiguity"; "before"; "after"; "gain"; "min gain";
        "size"; "max"; "verdict";
      ]
    (List.map
       (fun (d : H.decision) ->
         Table.row
           (Printf.sprintf "#%d->#%d" (fst d.H.arc) (snd d.H.arc))
           [
             Table.Text (kind_name d.H.kind);
             (match d.H.ambiguity with
             | Some a -> Table.Text (Memdep.ambiguity_name a)
             | None -> Table.Na);
             Table.Num d.H.before;
             Table.Num d.H.after;
             Table.Num d.H.gain;
             Table.Num d.H.min_gain;
             Table.Int d.H.tree_size;
             Table.Int d.H.max_size;
             verdict_cell d;
           ])
       ds)

let summary_table (t : t) (ds : H.decision list) : Table.t =
  let total = List.length ds in
  let applied = List.length (H.applied_decisions ds) in
  let rate =
    if total = 0 then Table.Na
    else Table.Pct (float_of_int applied /. float_of_int total)
  in
  Table.v
    ~id:(Printf.sprintf "why.summary.%s" t.workload)
    ~title:
      (Printf.sprintf "SpD decision summary %s (%d-cycle memory)" t.workload
         t.mem_latency)
    ~label_header:"measure" ~columns:[ "count" ]
    ~footers:[ Table.row "acceptance rate" [ rate ] ]
    (Table.row "candidates" [ Table.Int total ]
    :: Table.row "applied" [ Table.Int applied ]
    :: List.map
         (fun (reason, n) -> Table.row reason [ Table.Int n ])
         (H.rejection_histogram ds))

(** Every table of a why run: per selected tree the decision table,
    then the program-wide summary (over the same selection). *)
let tables ?fn ?tree (t : t) : Table.t list =
  let ds = selected ?fn ?tree t in
  List.map (decisions_table t) (groups ds) @ [ summary_table t ds ]
