(* Every metric the benchmark reports, with its unit.  BENCHMARK.json at
   the root of the repository lists the same names in the same order;
   the self-tests hold the two together. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("sim_speed", "sim_s/s");
    ("regen_s", "s");
    ("alloc_words_per_instr", "words/instr");
    ("heap_peak_mb", "MiB");
    ("cmd_ms_p50", "ms");
    ("cmd_ms_p99", "ms");
  ]

let per_layer =
  [
    ("cpu.batch_s", "s/unit");
    ("cpu.batches", "count/unit");
    ("cpu.instrs", "count/unit");
    ("cpu.ns_per_instr", "ns");
    ("cpu.words_per_instr", "words/instr");
    ("cpu.instrs_per_batch", "count");
    ("cpu.icache_hit_ratio", "ratio");
    ("cpu.block_hit_ratio", "ratio");
    ("cpu.blocks_compiled", "count");
    ("cpu.block_invalidations", "count");
    ("mmu.tlb_hits", "count");
    ("mmu.tlb_hit_ratio", "ratio");
    ("shadow.fills", "count");
    ("engine.dispatch_s", "s/unit");
    ("engine.dispatch_calls", "count/unit");
    ("engine.events", "count/unit");
    ("engine.useful_dispatch_ratio", "ratio");
    ("engine.ns_per_event", "ns");
    ("engine.words_per_event", "words/event");
    ("engine.idle_skip_s", "s/unit");
    ("engine.idle_skips", "count/unit");
    ("nic.frames", "count");
    ("nic.bytes", "bytes");
    ("scsi.segments", "count");
    ("pit.ticks", "count");
    ("monitor.world_switches", "count");
    ("monitor.pic_emulations", "count");
    ("monitor.pit_emulations", "count");
    ("monitor.cpu_emulations", "count");
    ("monitor.io_emulations", "count");
    ("monitor.reflected_irqs", "count");
    ("monitor.reflected_faults", "count");
    ("monitor.switches_per_frame", "count/frame");
    ("flight.events", "count");
    ("flight.events_per_kinstr", "count/kinstr");
  ]
  @ List.map (fun cat -> ("load.sim_busy." ^ cat, "cycles")) Workloads.busy_categories
  @ [
      ("session.cmds", "count/unit");
      ("session.cmd_failed", "count");
      ("session.cmd_sim_ms_p50", "ms");
      ("session.cmd_sim_ms_p99", "ms");
      ("session.packets_sent", "count");
      ("session.packets_received", "count");
      ("session.retransmissions", "count");
      ("stub.commands_handled", "count");
      ("stub.notifications_sent", "count");
      ("session.host_ms_per_sim_ms", "ms/ms");
    ]
  @ List.map (fun kind -> ("session.cmd_ms." ^ kind, "ms")) Workloads.cmd_kinds
  @ [
      ("setup.kernel_build_s", "s");
      ("setup.machine_create_s", "s");
      ("setup.install_boot_s", "s");
      ("setup.warmup_s", "s");
      ("harness.fig31_s.bare", "s");
      ("harness.fig31_s.lw", "s");
      ("harness.fig31_s.full", "s");
      ("harness.headline_s.bare", "s");
      ("harness.headline_s.lw", "s");
      ("harness.headline_s.full", "s");
      ("gc.minor_words", "words/unit");
      ("gc.minor_collections", "count/unit");
      ("gc.major_collections", "count/unit");
      ("trace.overhead_pct", "%");
      ("trace.coverage", "ratio");
      ("host.contention", "ratio");
    ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '.' || c = '-')
       s
