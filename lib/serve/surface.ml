(** The query surfaces, each declared once (see the .mli). *)

open Cmdliner
module Json = Spd_telemetry.Json
module Engine = Spd_harness.Engine
module Artefact = Spd_harness.Artefact
module Cliflags = Spd_harness.Cliflags
module Pipeline = Spd_harness.Pipeline
module Explain = Spd_harness.Explain
module Why = Spd_harness.Why
module Validation = Spd_harness.Validation
module Registry = Spd_workloads.Registry

exception Bad_params of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_params s)) fmt

(* ------------------------------------------------------------------ *)
(* Value types: one acceptance rule, spelled for both front ends *)

type 'a ty = { conv : string -> 'a Arg.conv; json : string -> Json.t -> 'a }

let conv_of parse pp =
  Arg.conv ((fun s -> Result.map_error (fun e -> `Msg e) (parse s)), pp)

let string =
  {
    conv = (fun _ -> Arg.string);
    json =
      (fun name -> function
        | Json.String s -> s
        | _ -> bad "%S must be a string" name);
  }

let int_json ~min ~expects name j =
  match Json.to_number j with
  | Some v when Float.is_integer v && v >= min -> int_of_float v
  | Some v when min > 0.0 -> bad "%S expects %s, got %g" name expects v
  | _ -> bad "%S expects %s" name expects

let pos_int =
  {
    conv = (fun flag -> conv_of (Cliflags.pos_int ~flag) Fmt.int);
    json = int_json ~min:1.0 ~expects:"a positive integer";
  }

let nat =
  {
    conv = (fun flag -> conv_of (Cliflags.nat ~flag) Fmt.int);
    json = int_json ~min:0.0 ~expects:"a non-negative integer";
  }

let pos_float =
  {
    conv = (fun flag -> conv_of (Cliflags.pos_float ~flag) Fmt.float);
    json =
      (fun name j ->
        match Json.to_number j with
        | Some v when v > 0.0 -> v
        | Some v ->
            bad "%S expects a positive number of seconds, got %g" name v
        | None -> bad "%S expects a positive number of seconds" name);
  }

let pipeline =
  let parse s =
    let up = String.uppercase_ascii s in
    match List.find_opt (fun k -> Pipeline.name k = up) Pipeline.all with
    | Some k -> Ok k
    | None ->
        Error
          (Printf.sprintf
             "unknown pipeline %S (one of: naive, static, spec, perfect)" s)
  in
  {
    conv = (fun _ -> conv_of parse Pipeline.pp);
    json =
      (fun name j ->
        match parse (string.json name j) with
        | Ok k -> k
        | Error e -> bad "%s" e);
  }

let strings =
  {
    conv = (fun _ -> Arg.(list string));
    json =
      (fun name j ->
        match Json.to_list j with
        | Some l ->
            List.map
              (fun j ->
                match Json.to_string_opt j with
                | Some s -> s
                | None -> bad "%S must be a list of strings" name)
              l
        | None -> bad "%S must be a list of strings" name);
  }

let member name ty p =
  match Json.member name p with
  | None | Some Json.Null -> None
  | Some j -> Some (ty.json name j)

let required name ty p =
  match member name ty p with
  | Some v -> v
  | None -> bad "missing required parameter %S" name

(* ------------------------------------------------------------------ *)
(* Parameter sets.  The CLI side is a thunk so that validation beyond
   the converters runs inside the command (exit 1), in the same order
   as the RPC decoder. *)

type 'a params = { term : (unit -> 'a) Term.t; of_json : Json.t -> 'a }

let term p = p.term
let of_json p = p.of_json
let const v = { term = Term.const (fun () -> v); of_json = (fun _ -> v) }

let ( let+ ) p f =
  {
    term = Term.(const (fun th () -> f (th ())) $ p.term);
    of_json = (fun j -> f (p.of_json j));
  }

let ( and+ ) a b =
  {
    term =
      Term.(
        const (fun ta tb () ->
            let x = ta () in
            (x, tb ()))
        $ a.term $ b.term);
    of_json =
      (fun j ->
        let x = a.of_json j in
        (x, b.of_json j));
  }

(* a CLI-only argument: the daemon always sees [default] *)
let cli_only arg default =
  { term = Term.(const (fun v () -> v) $ arg); of_json = (fun _ -> default) }

(* an option spelled [names] on the CLI (its hint names the last, long
   spelling) and [member] in RPC params; absent, it is [default] on both
   sides *)
let opt_default default ~names ~docv ~doc ~member:m ty =
  let c = ty.conv ("--" ^ List.hd (List.rev names)) in
  let arg = Arg.(value & opt c default & info names ~docv ~doc) in
  {
    (cli_only arg default) with
    of_json = (fun p -> Option.value ~default (member m ty p));
  }

let opt ~names ~docv ~doc ~member ty =
  opt_default None ~names ~docv ~doc ~member
    {
      conv = (fun flag -> Arg.some (ty.conv flag));
      json = (fun name j -> Some (ty.json name j));
    }

let require_workload name =
  if not (List.mem name Registry.known) then
    bad "unknown workload %S (one of: %s)" name
      (String.concat ", " Registry.known)

let workload ~cmd =
  {
    term =
      Term.(
        const (fun name () ->
            match name with
            | None ->
                bad "spd %s: missing WORKLOAD (one of: %s)" cmd
                  (String.concat ", " Registry.known)
            | Some w ->
                require_workload w;
                w)
        $ Arg.(
            value
            & pos 0 (some string) None
            & info [] ~docv:"WORKLOAD"
                ~doc:
                  "Workload name (the built-in benchmarks plus extras such \
                   as $(b,matmul300))."));
    of_json =
      (fun p ->
        let w = required "workload" string p in
        require_workload w;
        w);
  }

(* ------------------------------------------------------------------ *)
(* Descriptors *)

type session_flags = Fault_flags | Pool_flags | All_flags

type ('p, 'r) spec = {
  name : string;
  doc : string;
  format_doc : string;
  session : session_flags;
  params : 'p params;
  run : Engine.Session.t -> 'p -> 'r;
  to_json : Engine.Session.t -> 'p -> 'r -> Json.t;
  render :
    Engine.Session.t -> 'p -> Artefact.format -> Format.formatter -> 'r -> unit;
  failed : Engine.Session.t -> 'r -> bool;
}

type t = Surface : ('p, 'r) spec -> t

(* [spd report] *)

type report = {
  artefacts : string list;
  validate : bool;
  timings : bool;
  widths : int list option;
}

type report_result =
  | Artefacts of Artefact.t list
  | Certified of Validation.certification

let artefacts =
  let check names =
    List.iter
      (fun n ->
        if Artefact.find n = None then
          bad "unknown artefact %S (one of: %s)" n
            (String.concat ", " (Artefact.names ())))
      names;
    names
  in
  {
    term =
      Term.(
        const (fun name () ->
            match name with
            | None -> Artefact.paper_set
            | Some "all" -> Artefact.paper_set @ Artefact.extension_set
            | Some n -> check [ n ])
        $ Arg.(
            value
            & pos 0 (some string) None
            & info [] ~docv:"ARTEFACT"
                ~doc:
                  "Table or figure to regenerate (default: the paper's; \
                   $(b,all) adds the extension studies)."));
    of_json =
      (fun p ->
        check
          (Option.value ~default:Artefact.paper_set
             (member "artefacts" strings p)));
  }

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let report_params =
  (* [--list] acts at once, like [--help] *)
  let+ () =
    cli_only
      Term.(
        const (fun list ->
            if list then begin
              Artefact.pp_list Fmt.stdout ();
              Stdlib.exit 0
            end)
        $ flag "list" "List the artefact registry with one-line descriptions.")
      ()
  and+ artefacts = artefacts
  and+ validate =
    cli_only
      (flag "validate"
         "Certify the paper grid instead of rendering artefacts: \
          translation-validate every SpD application (each built-in \
          workload at 2- and 6-cycle memory) and print the verdict tally.  \
          Exits 2 on any $(b,refuted) verdict or failed cell; $(b,unknown) \
          verdicts are tolerated and counted.")
      false
  and+ timings =
    cli_only (flag "timings" "Append the engine's per-stage wall-clock report.")
      false
  and+ widths =
    cli_only
      Arg.(
        value
        & opt (some (conv_of Cliflags.widths Fmt.(list ~sep:comma int))) None
        & info [ "widths" ] ~docv:"A,B,.."
            ~doc:"Machine widths swept by Figure 6-3 (default 1..8).")
      None
  in
  { artefacts; validate; timings; widths }

let report =
  Surface
    {
      name = "report";
      doc = "Regenerate the paper's evaluation tables and figures.";
      format_doc =
        "Output format: $(b,pretty) (default), $(b,json) (one spd-report/1 \
         document with every table, the failures and a metrics snapshot) or \
         $(b,csv) (long format).";
      session = All_flags;
      params = report_params;
      run =
        (fun session p ->
          if p.validate then Certified (Validation.certify session)
          else begin
            Option.iter Spd_harness.Report.set_widths p.widths;
            Artefacts (Artefact.of_names p.artefacts)
          end);
      to_json =
        (fun session _ -> function
          | Artefacts arts -> Artefact.to_json ~session arts
          | Certified _ -> invalid_arg "report: --validate has no document");
      render =
        (fun session p format ppf -> function
          | Certified c -> Fmt.pf ppf "%a@." Validation.pp_certification c
          | Artefacts arts ->
              Artefact.render ~session format ppf arts;
              if format = Artefact.Pretty then begin
                if p.timings && p.artefacts <> [ "timings" ] then
                  List.iter (Spd_harness.Table.pp ppf)
                    (Spd_harness.Report.timings_tables session);
                Spd_harness.Report.failure_appendix session ppf ()
              end);
      failed =
        (fun session -> function
          | Certified c -> not (Validation.acceptable c)
          | Artefacts _ -> Engine.Session.failures session <> []);
    }

(* [spd explain], [spd why], [spd validate]: one workload's document,
   optionally filtered to a function or tree *)

type target = {
  workload : string;
  width : int;  (** machine width, [explain] only *)
  mem_latency : int;
  fn : string option;
  tree : int option;
}

let target ~cmd ~width =
  let+ workload = workload ~cmd
  and+ width = width
  and+ mem_latency =
    opt_default 2 ~names:[ "m"; "mem-latency" ] ~docv:"CYCLES"
      ~doc:"Memory latency in cycles (the paper uses 2 and 6)."
      ~member:"mem_latency" pos_int
  and+ fn =
    opt ~names:[ "f"; "fn" ] ~docv:"NAME" ~doc:"Restrict to a function."
      ~member:"fn" string
  and+ tree =
    opt ~names:[ "t"; "tree" ] ~docv:"ID" ~doc:"Restrict to a tree id."
      ~member:"tree" nat
  in
  { workload; width; mem_latency; fn; tree }

let ledger ~name ~doc ~schema ~session ~what ?(width = const 5) ~analyze
    ~selected ~tables ~to_json () =
  let to_json _ p r = to_json ?fn:p.fn ?tree:p.tree r in
  Surface
    {
      name;
      doc;
      format_doc =
        Printf.sprintf
          "Output format: $(b,pretty) (default), $(b,json) (one %s \
           document) or $(b,csv)."
          schema;
      session;
      params = target ~cmd:name ~width;
      run =
        (fun session p ->
          let r = analyze session p in
          (* an empty ledger is a valid answer; only a filter that
             matches nothing is a caller error *)
          if
            (p.fn <> None || p.tree <> None)
            && selected ?fn:p.fn ?tree:p.tree r = []
          then bad "no %s of %S matches the fn/tree filter" what p.workload;
          r);
      to_json;
      render =
        (fun session p format ppf r ->
          Artefact.render_doc format ppf
            ~tables:(fun () -> tables ?fn:p.fn ?tree:p.tree r)
            ~json:(fun () -> to_json session p r));
      failed = (fun _ _ -> false);
    }

let explain =
  ledger ~name:"explain" ~schema:Explain.schema ~session:Fault_flags
    ~what:"tree"
    ~doc:
      "Explain a workload's schedules: cycle-by-FU occupancy grids with SpD \
       version annotations, critical-path cycle attribution per tree, and a \
       per-region table whose cycles sum exactly to the simulated total."
    ~width:
      (opt_default 5 ~names:[ "w"; "width" ] ~docv:"FUS"
         ~doc:"Number of universal functional units (default 5)."
         ~member:"width" pos_int)
    ~analyze:(fun session p ->
      Explain.analyze ~width:p.width ~mem_latency:p.mem_latency session
        p.workload)
    ~selected:Explain.selected ~tables:Explain.tables ~to_json:Explain.to_json
    ()

let why =
  ledger ~name:"why" ~schema:Why.schema ~session:Pool_flags
    ~what:"ledger entry"
    ~doc:
      "Explain the SpD guidance heuristic's decisions for a workload: per \
       tree, every candidate ambiguous arc with its predicted gain, the \
       static test that left it ambiguous, the budgets in force and the \
       applied/rejected verdict, plus the rejection-reason histogram."
    ~analyze:(fun session p ->
      Why.analyze ~mem_latency:p.mem_latency session p.workload)
    ~selected:Why.selected ~tables:Why.tables ~to_json:Why.to_json ()

let validate =
  ledger ~name:"validate" ~schema:Validation.schema ~session:Pool_flags
    ~what:"validation entry"
    ~doc:
      "Translation-validate a workload's SpD transform: for every applied \
       speculation, symbolically prove the original and transformed trees \
       equivalent (taken exit, live-out values, committed stores) on both \
       sides of the speculated alias predicate.  Each application is \
       $(b,proved), $(b,refuted) (with a concrete counterexample — the cell \
       then fails and the exit status is 2) or $(b,unknown) (the proof hit a \
       modelling limit; counted, never fatal)."
    ~analyze:(fun session p ->
      Validation.analyze ~mem_latency:p.mem_latency session p.workload)
    ~selected:Validation.selected ~tables:Validation.tables
    ~to_json:Validation.to_json ()

let table = [ report; explain; why; validate ]
let names = List.map (fun (Surface s) -> s.name) table
let find name = List.find_opt (fun (Surface s) -> s.name = name) table

let serve (Surface s) session params =
  let p = s.params.of_json params in
  s.to_json session p (s.run session p)
