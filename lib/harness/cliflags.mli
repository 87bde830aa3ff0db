(** Shared command-line flag parsers.

    One parser per flag shape, returning [Error] with a friendly
    one-line hint naming the flag — the converters of [spd]'s flags and
    of the query surfaces' parameters ([Spd_serve.Surface]). *)

(** [pos_int ~flag s] parses a positive (>= 1) integer;
    ["--fuel expects a positive integer, got \"x\""] otherwise. *)
val pos_int : flag:string -> string -> (int, string) result

(** [nat ~flag s] parses a non-negative integer. *)
val nat : flag:string -> string -> (int, string) result

(** [pos_float ~flag s] parses a positive, finite number of seconds. *)
val pos_float : flag:string -> string -> (float, string) result

(** [widths s] parses a non-empty comma-separated list of positive
    machine widths, e.g. ["1,2,4,8"].  [flag] defaults to
    ["--widths"]. *)
val widths : ?flag:string -> string -> (int list, string) result
