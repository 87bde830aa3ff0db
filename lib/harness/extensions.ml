(** Studies beyond the paper's evaluation section, implementing its
    discussion and future-work items:

    - {b hardware dynamic disambiguation} (section 2.3): the
      88110-style small-window load/store reordering alternative, to show
      that SpD's compile-time scope beats small hardware windows;
    - {b tree grafting} (section 7): unrolling loop trees to expose more
      ambiguous pairs to SpD;
    - {b guidance-parameter ablation} (section 5.3): how [MaxExpansion]
      and [MinGain] trade code growth against speedup.

    Like {!Report}, each experiment takes its {!Engine.Session.t}
    explicitly, computes its rows on the session's domain pool into
    {!Table.t} data and renders afterwards, so the output is
    independent of the number of jobs and identical across output
    formats. *)

module W = Spd_workloads
module H = Spd_core.Heuristic
module Query = Engine.Query

(* Every extension reads the 5-FU machine with 6-cycle memory, through
   the engine's request path: its cells are memoized, disk-cached and
   failure-contained like the paper grid's, and share the grid's stage
   nodes (and, where the program variant coincides, its cells). *)
let latency = 6
let width = Spd_machine.Descr.Fus 5

let submit ?graft ?spd_params s ~bench artefact =
  Engine.Session.submit s (Query.v ?graft ?spd_params ~bench ~latency artefact)

let cycles ?graft ?spd_params s ~bench kind =
  Engine.to_int
    (submit ?graft ?spd_params s ~bench (Query.Cycles { kind; width }))

let speedup ~base this =
  match (base, this) with
  | Engine.Ok base, Engine.Ok this -> Table.Pct (Pipeline.speedup ~base ~this)
  | _ -> Table.Na

(* one row per input, computed on the session's domain pool *)
let rows s f xs = Engine.Session.parallel_map s f xs

let names ws = List.map (fun (w : W.Workload.t) -> w.name) ws

(* ------------------------------------------------------------------ *)

(** Extension A: SPEC vs hardware dynamic disambiguation windows. *)
let ext_dynamic_tables s =
  let row bench =
    let base = cycles s ~bench Pipeline.Static in
    let hw window =
      Engine.to_int (submit s ~bench (Query.Hw_cycles { window; width }))
    in
    Table.row bench
      (List.map (fun w -> speedup ~base (hw w)) [ 2; 4; 8; 32 ]
      @ [ speedup ~base (cycles s ~bench Pipeline.Spec) ])
  in
  [
    Table.v ~id:"ext_dynamic"
      ~title:
        "Extension A: SpD vs hardware dynamic disambiguation (section 2.3)"
      ~notes:
        [
          "5 FU machine, 6-cycle memory; HW reorders within a W-reference \
           window on";
          "the STATIC-disambiguated code; speedups over STATIC.";
        ]
      ~label_header:"Program"
      ~columns:[ "HW W=2"; "HW W=4"; "HW W=8"; "HW W=32"; "SPEC" ]
      (rows s row (names W.Registry.all));
  ]

(* ------------------------------------------------------------------ *)

(** Extension B: the effect of tree grafting (loop unrolling) on SpD. *)
let ext_grafting_tables s =
  let measure ~graft bench =
    let apps =
      match Engine.to_counts (submit ~graft s ~bench Query.Spd_counts) with
      | Engine.Ok (raw, war, waw) -> Table.Int (raw + war + waw)
      | Engine.Failed _ -> Table.Na
    in
    [
      apps;
      speedup
        ~base:(cycles ~graft s ~bench Pipeline.Static)
        (cycles ~graft s ~bench Pipeline.Spec);
    ]
  in
  [
    Table.v ~id:"ext_grafting"
      ~title:"Extension B: tree grafting (section 7 future work)"
      ~notes:
        [
          "5 FU machine, 6-cycle memory; SPEC with and without one round \
           of loop-tree";
          "replication; speedups over STATIC of the same code shape.";
        ]
      ~label_header:"Program"
      ~groups:[ ("ungrafted", 2); ("grafted", 2) ]
      ~columns:[ "apps"; "SPEC"; "apps"; "SPEC+graft" ]
      (rows s
         (fun bench ->
           Table.row bench
             (measure ~graft:false bench @ measure ~graft:true bench))
         (names W.Registry.all));
  ]

(* ------------------------------------------------------------------ *)

(** Extension C: guidance heuristic parameter ablation. *)
let ext_params_tables s =
  (* per NRC workload: SPEC's speedup factor over STATIC and its code
     size relative to STATIC's; [n/a] when any of their cells failed *)
  let measure spd_params =
    let per_bench bench =
      let size kind =
        Engine.to_int (submit ~spd_params s ~bench (Query.Code_size kind))
      in
      match
        ( cycles s ~bench Pipeline.Static,
          cycles ~spd_params s ~bench Pipeline.Spec,
          size Pipeline.Static,
          size Pipeline.Spec )
      with
      | Engine.Ok base, Engine.Ok this, Engine.Ok base_size, Engine.Ok size
        ->
          Some
            ( 1.0 +. Pipeline.speedup ~base ~this,
              float_of_int size /. float_of_int base_size )
      | _ -> None
    in
    let geomean xs =
      exp
        (List.fold_left (fun a x -> a +. log x) 0.0 xs
        /. float_of_int (List.length xs))
    in
    match List.map per_bench (names W.Registry.nrc) with
    | measured when List.mem None measured -> [ Table.Na; Table.Na ]
    | measured ->
        let speedups, growths = List.split (List.filter_map Fun.id measured) in
        [
          Table.Pct (geomean speedups -. 1.0);
          Table.Pct (geomean growths -. 1.0);
        ]
  in
  let sweep to_params values =
    rows s (fun v -> (v, measure (to_params v))) values
  in
  let expansions =
    sweep
      (fun me -> { H.default_params with max_expansion = me })
      [ 1.0; 1.25; 1.5; 2.0; 4.0; 8.0 ]
  and gains =
    sweep
      (fun mg -> { H.default_params with min_gain = mg })
      [ 0.25; 0.5; 0.75; 1.5; 3.0; 6.0 ]
  in
  let table ~id ~knob ~fixed data =
    Table.v ~id
      ~title:
        (Printf.sprintf
           "Extension C: guidance heuristic ablation — %s sweep (%s)" knob
           fixed)
      ~notes:
        [
          "NRC geometric means at 5 FU, 6-cycle memory: SPEC speedup over \
           STATIC and";
          "code growth.";
        ]
      ~label_header:knob ~columns:[ "speedup"; "code growth" ]
      (List.map
         (fun (v, cells) -> Table.row (Printf.sprintf "%.2f" v) cells)
         data)
  in
  [
    table ~id:"ext_params.max_expansion" ~knob:"MaxExpansion"
      ~fixed:(Printf.sprintf "MinGain = %.2f" H.default_params.min_gain)
      expansions;
    table ~id:"ext_params.min_gain" ~knob:"MinGain"
      ~fixed:
        (Printf.sprintf "MaxExpansion = %.2f" H.default_params.max_expansion)
      gains;
  ]
