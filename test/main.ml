(* Test entry point: every suite registers its alcotest cases here.
   Property-based suites (qcheck) are adapted via QCheck_alcotest. *)

let () =
  Alcotest.run "fastrule"
    (Test_prng.suite @ Test_ternary.suite @ Test_header.suite @ Test_rule.suite
   @ Test_range.suite
   @ Test_graph.suite @ Test_topo.suite @ Test_build.suite @ Test_stats.suite
   @ Test_overlap_index.suite @ Test_bitree.suite @ Test_tcam.suite @ Test_layout.suite
   @ Test_latency.suite @ Test_defrag.suite @ Test_algo.suite @ Test_dir.suite @ Test_metric.suite
   @ Test_store.suite @ Test_check.suite @ Test_naive.suite @ Test_ruletris.suite
   @ Test_fastrule.suite @ Test_separated.suite @ Test_workload.suite
   @ Test_updates.suite @ Test_rules_io.suite @ Test_measure.suite
   @ Test_experiment.suite @ Test_firmware.suite @ Test_agent.suite
   @ Test_queue_sim.suite @ Test_paper_examples.suite @ Test_ctrl.suite
   @ Test_resil.suite @ Test_failover.suite @ Test_exec.suite
   @ Test_conform.suite @ Test_deadmap.suite @ Test_degraded.suite
   @ Test_zipf.suite @ Test_cache.suite @ Test_net.suite
   @ Test_image.suite @ Test_plane.suite
   @ Test_props.suite)
