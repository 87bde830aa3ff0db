let () = Spd_cli.Cli.main Sys.argv
