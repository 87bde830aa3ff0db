(** The benchmark registry: Table 6-2 of the paper. *)

let all : Workload.t list =
  [
    Adi.workload;
    Bcuint.workload;
    Fft.workload;
    Moment.workload;
    Smooft.workload;
    Solvde.workload;
    Perm.workload;
    Queen.workload;
    Quick.workload;
    Tree_sort.workload;
    Espresso.workload;
  ]

(** Workloads outside the paper's Table 6-2 set: resolvable by name (the
    [spd] CLI, [spd explain]) but excluded from [all]/[names] so the
    paper artefacts, bench reports and their caches are unaffected. *)
let extras : Workload.t list = [ Matmul.workload ]

let nrc = List.filter (fun (w : Workload.t) -> w.suite = Workload.Nrc) all

let by_name name =
  match
    List.find_opt (fun (w : Workload.t) -> w.name = name) (all @ extras)
  with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "unknown workload %s" name)

let names = List.map (fun (w : Workload.t) -> w.name) all
let known = names @ List.map (fun (w : Workload.t) -> w.name) extras

(** Source line count, for the Table 6-2 printout. *)
let lines (w : Workload.t) =
  String.split_on_char '\n' w.source
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length
