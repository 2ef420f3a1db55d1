let () =
  Alcotest.run "mppm"
    (Suite_util.tests @ Suite_cache.tests @ Suite_trace.tests
   @ Suite_simcore.tests @ Suite_stream.tests @ Suite_multicore.tests @ Suite_profile.tests
   @ Suite_contention.tests @ Suite_window.tests @ Suite_model.tests @ Suite_workload.tests @ Suite_experiments.tests @ Suite_extensions.tests @ Suite_simpoint.tests
   @ Suite_lint.tests @ Suite_sema.tests @ Suite_obs.tests
   @ Suite_pool.tests @ Suite_serve.tests)
