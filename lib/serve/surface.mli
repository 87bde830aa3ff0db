(** The query surfaces, each declared once.

    A surface is a request the repository answers both as an [spd]
    subcommand and as a method of the [spd serve] daemon: [report],
    [explain], [why] and [validate].  Its descriptor holds the name and
    doc string, the typed parameters (each with its CLI spelling and
    its RPC member name, decoded by one rule on both sides), the run
    function over an {!Spd_harness.Engine.Session.t} and the renderers.
    The [spd] subcommands (in [Spd_cli]) and {!Server}'s dispatch are
    both derived from {!table}, so a JSON document printed by the CLI
    and one served by the daemon come from the same code. *)

module Json = Spd_telemetry.Json
module Engine = Spd_harness.Engine
module Artefact = Spd_harness.Artefact

(** A parameter that failed validation.  The daemon answers it with
    JSON-RPC error -32602 (invalid params); [spd] prints it and exits
    1. *)
exception Bad_params of string

(** {1 Typed parameters} *)

(** How one value is read: a Cmdliner converter for the CLI (given the
    flag spelling, for its hint) and a decoder of a present RPC member
    (given the member name); both accept the same values. *)
type 'a ty = {
  conv : string -> 'a Cmdliner.Arg.conv;
  json : string -> Json.t -> 'a;  (** raises {!Bad_params} *)
}

val string : string ty

(** A positive integer; the hint wording of {!Spd_harness.Cliflags}. *)
val pos_int : int ty

(** A positive, finite number of seconds. *)
val pos_float : float ty

(** A pipeline name, case-insensitive: naive, static, spec or perfect. *)
val pipeline : Spd_harness.Pipeline.kind ty

(** A list of strings (JSON only: no CLI spelling). *)
val strings : string list ty

(** [member name ty params] decodes the optional member [name] of an
    RPC params object; [null] counts as absent. *)
val member : string -> 'a ty -> Json.t -> 'a option

(** [required name ty params] is [member], or {!Bad_params} when the
    member is absent. *)
val required : string -> 'a ty -> Json.t -> 'a

(** Raises {!Bad_params} unless [name] is a built-in workload. *)
val require_workload : string -> unit

(** A set of typed parameters, decodable from argv and from an RPC
    params object. *)
type 'a params

(** The Cmdliner term of the CLI spelling.  Converter errors are
    Cmdliner usage errors; the returned thunk runs the remaining
    validation and raises {!Bad_params}. *)
val term : 'a params -> (unit -> 'a) Cmdliner.Term.t

(** Decode an RPC params object; raises {!Bad_params}. *)
val of_json : 'a params -> Json.t -> 'a

(** {1 Descriptors} *)

(** The session flags the CLI form takes; the daemon serves every
    surface from its own session. *)
type session_flags =
  | Fault_flags  (** one job, no disk cache; [--inject-fault] *)
  | Pool_flags  (** [--jobs], [--no-cache] *)
  | All_flags
      (** [--jobs], [--no-cache], [--retries], [--fuel], [--deadline],
          [--inject-fault] and [--trace] *)

type ('p, 'r) spec = {
  name : string;
  doc : string;
  format_doc : string;  (** the CLI's [--format] doc *)
  session : session_flags;
  params : 'p params;
  run : Engine.Session.t -> 'p -> 'r;
      (** raises {!Bad_params}, or {!Engine.Cell_failed} on a failed
          cell *)
  to_json : Engine.Session.t -> 'p -> 'r -> Json.t;
      (** the daemon's result, and the CLI's [--format json] document *)
  render :
    Engine.Session.t -> 'p -> Artefact.format -> Format.formatter -> 'r -> unit;
      (** the CLI's output in every format; [Json] prints {!to_json} *)
  failed : Engine.Session.t -> 'r -> bool;  (** the CLI then exits 2 *)
}

type t = Surface : ('p, 'r) spec -> t

(** [report], [explain], [why] and [validate]. *)
val table : t list

val names : string list
val find : string -> t option

(** Answer an RPC: decode the params object, run, and return the
    document. *)
val serve : t -> Engine.Session.t -> Json.t -> Json.t
