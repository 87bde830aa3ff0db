(** Shared command-line flag parsers (see the .mli). *)

let int_at_least min ~expects ~flag s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= min -> Ok n
  | Some n -> Error (Printf.sprintf "%s expects %s, got %d" flag expects n)
  | None -> Error (Printf.sprintf "%s expects %s, got %S" flag expects s)

let pos_int = int_at_least 1 ~expects:"a positive integer"
let nat = int_at_least 0 ~expects:"a non-negative integer"

let pos_float ~flag s =
  match float_of_string_opt (String.trim s) with
  | Some v when v > 0.0 && Float.is_finite v -> Ok v
  | Some v ->
      Error
        (Printf.sprintf "%s expects a positive number of seconds, got %g"
           flag v)
  | None ->
      Error
        (Printf.sprintf "%s expects a positive number of seconds, got %S"
           flag s)

let widths ?(flag = "--widths") s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then
    Error
      (Printf.sprintf "%s expects a comma-separated list of widths, got %S"
         flag s)
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match pos_int ~flag p with
          | Ok n -> go (n :: acc) rest
          | Error _ ->
              Error
                (Printf.sprintf
                   "%s expects a comma-separated list of positive widths, \
                    got %S"
                   flag s))
    in
    go [] parts
