(** [bench/main.exe ARGS] is an alias of [spd report ARGS]. *)
let () = Spd_cli.Cli.main ~prefix:[ "report" ] Sys.argv
