let () =
  Alcotest.run "onesched"
    [
      ("prelude", Test_prelude.suite);
      ("timeline", Test_timeline.suite);
      ("graph", Test_graph.suite);
      ("platform", Test_platform.suite);
      ("schedule", Test_schedule.suite);
      ("engine", Test_engine.suite);
      ("heuristics", Test_heuristics.suite);
      ("complexity", Test_complexity.suite);
      ("simkit", Test_simkit.suite);
      ("kernels", Test_kernels.suite);
      ("experiments", Test_experiments.suite);
      ("extensions", Test_extensions.suite);
      ("export", Test_export.suite);
      ("link-contention", Test_link_contention.suite);
      ("executor-io", Test_simkit2.suite);
      ("improvers", Test_improvers.suite);
      ("ilha-detail", Test_ilha_detail.suite);
      ("unrelated", Test_unrelated.suite);
      ("rendering", Test_svg.suite);
      ("obs", Test_obs.suite);
      ("duplication", Test_duplication.suite);
      ("faults", Test_faults.suite);
      ("online", Test_online.suite);
      ("pool", Test_pool.suite);
      ("oracle", Test_oracle.suite);
      ("models", Test_models.suite);
      ("metamorphic", Test_metamorphic.suite);
      ("scale", Test_scale.suite);
      ("scheduld", Test_scheduld.suite);
    ]
