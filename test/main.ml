let () =
  Alcotest.run "spd"
    [
      ("ir", Test_ir.tests);
      ("lang", Test_lang.tests);
      ("sim", Test_sim.tests);
      ("analysis", Test_analysis.tests);
      ("disambig", Test_disambig.tests);
      ("machine", Test_machine.tests);
      ("spd", Test_spd.tests);
      ("harness", Test_harness.tests);
      ("faults", Test_faults.tests);
      ("validate", Test_validate.tests);
      ("serve", Test_serve.tests);
      ("workloads", Test_workloads.tests);
      ("telemetry", Test_telemetry.tests);
      ("explain", Test_explain.tests);
      ("golden", Test_golden.tests);
      ("lint", Test_lint.tests);
    ]
