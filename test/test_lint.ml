(** Source lints over [lib/].

    No [lazy] or [Lazy.] outside {!allowed}: the engine forces shared
    state from several domains at once, and a concurrent first
    [Lazy.force] raises [CamlinternalLazy.Undefined] in OCaml 5.
    Module-level state is created eagerly instead (metric handles are
    idempotent get-or-register calls). *)

open Util

let case name f = Alcotest.test_case name `Quick f

(* files, relative to lib/, that may use [lazy]; each entry needs a
   comment saying why its forcing is confined to one domain *)
let allowed : string list = []

let rec source_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then source_files path
         else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
         then [ path ]
         else [])

(* the code of an OCaml source with comments, string literals and
   character literals blanked out, so only real tokens remain *)
let code_only src =
  let n = String.length src in
  let b = Bytes.of_string src in
  let blank i = if Bytes.get b i <> '\n' then Bytes.set b i ' ' in
  let rec string i =
    (* i is just past the opening quote *)
    if i >= n then i
    else
      match src.[i] with
      | '\\' -> blank i; if i + 1 < n then blank (i + 1); string (i + 2)
      | '"' -> blank i; i + 1
      | _ -> blank i; string (i + 1)
  in
  let rec comment depth i =
    if i >= n then i
    else if src.[i] = '(' && i + 1 < n && src.[i + 1] = '*' then begin
      blank i; blank (i + 1); comment (depth + 1) (i + 2)
    end
    else if src.[i] = '*' && i + 1 < n && src.[i + 1] = ')' then begin
      blank i; blank (i + 1);
      if depth = 1 then i + 2 else comment (depth - 1) (i + 2)
    end
    else if src.[i] = '"' then begin
      blank i; comment depth (string (i + 1))
    end
    else begin blank i; comment depth (i + 1) end
  in
  let rec code i =
    if i >= n then ()
    else if src.[i] = '(' && i + 1 < n && src.[i + 1] = '*' then
      code (comment 0 i)
    else if src.[i] = '"' then begin blank i; code (string (i + 1)) end
    else if src.[i] = '\'' && i + 2 < n && src.[i + 2] = '\'' then begin
      blank i; blank (i + 1); blank (i + 2); code (i + 3)
    end
    else if src.[i] = '\'' && i + 1 < n && src.[i + 1] = '\\' then begin
      let j = try String.index_from src (i + 2) '\'' with Not_found -> n - 1 in
      for k = i to j do blank k done;
      code (j + 1)
    end
    else code (i + 1)
  in
  code 0;
  Bytes.to_string b

let is_ident c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* every occurrence of [word] as a whole identifier *)
let occurs word code =
  let lw = String.length word and lc = String.length code in
  let rec go i =
    i + lw <= lc
    && ((String.sub code i lw = word
        && (i = 0 || not (is_ident code.[i - 1]))
        && (i + lw = lc || not (is_ident code.[i + lw])))
       || go (i + 1))
  in
  go 0

let test_no_lazy () =
  let root = "../lib" in
  let offenders =
    List.filter
      (fun path ->
        let rel =
          String.sub path (String.length root + 1)
            (String.length path - String.length root - 1)
        in
        (not (List.mem rel allowed))
        &&
        let code =
          code_only (In_channel.with_open_bin path In_channel.input_all)
        in
        occurs "lazy" code || occurs "Lazy" code)
      (source_files root)
  in
  check_bool
    (Printf.sprintf "no lazy in lib/ (found in: %s)"
       (String.concat ", " offenders))
    true (offenders = []);
  (* the scanner itself: code is caught, comments and strings are not *)
  check_bool "lint sees code" true (occurs "lazy" (code_only "let x = lazy 1"));
  check_bool "lint sees Lazy." true
    (occurs "Lazy" (code_only "let y = Lazy.force x"));
  check_bool "lint skips comments and strings" false
    (occurs "lazy"
       (code_only "(* lazy (* nested lazy *) *) let s = \"lazy\" and c = '\"'"))

let tests = [ case "no lazy or Lazy. in lib/" test_no_lazy ]
