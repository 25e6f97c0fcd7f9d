(* The benchmark's four workloads.  Each run repeats a workload's unit —
   a fresh machine set up, warmed and driven through a fixed amount of
   simulated work — so every unit of a run must end in the same
   simulated digest.  A unit takes [tr = Some tracer] to run through the
   traced loop with spans, [None] to run the program's own loop. *)

module Machine = Vmm_hw.Machine
module Cpu = Vmm_hw.Cpu
module Asm = Vmm_hw.Asm
module Isa = Vmm_hw.Isa
module Costs = Vmm_hw.Costs
module Nic = Vmm_hw.Nic
module Scsi = Vmm_hw.Scsi
module Pit = Vmm_hw.Pit
module Mmu = Vmm_hw.Mmu
module Stats = Vmm_sim.Stats
module Monitor = Core.Monitor
module Stub = Core.Stub
module Kernel = Vmm_guest.Kernel
module Workload = Vmm_harness.Workload
module Session = Vmm_debugger.Session
module Flight = Vmm_profile.Flight

type name = Stream_lw_sat | Cpu_bound | Debug_session | Paper_regen

let names =
  [
    ("stream-lw-sat", Stream_lw_sat);
    ("cpu-bound", Cpu_bound);
    ("debug-session", Debug_session);
    ("paper-regen", Paper_regen);
  ]

(* Sizes fixed by the paper's configuration (and the benchmark's own
   choice of window), never by the seed. *)
let stream_rate_mbps = 170.0 (* just below the LW-VMM's 177.5 Mbps *)
let debug_rate_mbps = 100.0
let warmup_s = 0.05
let stream_window_ms = 250 (* one Fig 3.1 measurement window *)
let cpu_warmup_cycles = 100_000L
let cpu_window_ms = 25
let think_ms = 1
let mem_read_len = 256

let span_id = Probe.span_id
let s_build = span_id "setup.kernel_build"
let s_create = span_id "setup.machine_create"
let s_install = span_id "setup.install_boot"
let s_warmup = span_id "setup.warmup"
let s_window = span_id "window"
let s_cmd = span_id "session.cmd"

(* ---------------------------------------------------------------- *)
(* Set-up                                                            *)
(* ---------------------------------------------------------------- *)

type ready = {
  m : Machine.t;
  mon : Monitor.t option;
  program : Asm.program;
  kernel : bool;  (** [program] is the streaming kernel *)
  session : Session.t option;
}

let cycles_of_s m s = Costs.cycles_of_seconds (Machine.costs m) s
let sim_s_of m cycles = Costs.seconds_of_cycles (Machine.costs m) cycles

let warm tr m ~cycles =
  Probe.span tr s_warmup (fun () ->
      Probe.advance tr m ~time:(Int64.add (Machine.now m) cycles))

(* The [sim-speed] compute loop: never idles, touches memory and the
   stack every lap, counts laps in r1.  Nine instructions a lap. *)
let cpu_loop_program () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0);
  Asm.movi a 4 (Asm.imm 0x4000);
  Asm.label a "loop";
  Asm.addi a 1 1 (Asm.imm 1);
  Asm.st a 4 0 1;
  Asm.ld a 5 4 0;
  Asm.add a 6 6 5;
  Asm.mul a 7 1 5;
  Asm.push a 6;
  Asm.pop a 8;
  Asm.cmpi a 1 (Asm.imm 0);
  Asm.jnz a (Asm.lbl "loop");
  Asm.assemble a

let cpu_loop_prologue = 3
let cpu_loop_lap = 9

(* Mirrors [Workload.prepare] for the LW-VMM, one timed step at a time. *)
let setup_lw tr ~rate ~attach =
  let m = Probe.span tr s_create (fun () -> Machine.create ()) in
  let program =
    Probe.span tr s_build (fun () ->
        Kernel.build (Kernel.default_config ~rate_mbps:rate))
  in
  let mon, session =
    Probe.span tr s_install (fun () ->
        let mon = Monitor.install m in
        Monitor.boot_guest mon program ~entry:Kernel.entry;
        (mon, if attach then Some (Session.attach m) else None))
  in
  warm tr m ~cycles:(cycles_of_s m warmup_s);
  { m; mon = Some mon; program; kernel = true; session }

let setup tr = function
  | Stream_lw_sat -> setup_lw tr ~rate:stream_rate_mbps ~attach:false
  | Debug_session -> setup_lw tr ~rate:debug_rate_mbps ~attach:true
  | Cpu_bound ->
    let m = Probe.span tr s_create (fun () -> Machine.create ()) in
    let program = Probe.span tr s_build cpu_loop_program in
    let mon =
      Probe.span tr s_install (fun () ->
          let mon = Monitor.install m in
          Monitor.boot_guest mon program ~entry:0x1000;
          mon)
    in
    warm tr m ~cycles:cpu_warmup_cycles;
    { m; mon = Some mon; program; kernel = false; session = None }
  | Paper_regen ->
    (* the sweep's first machine: bare metal at 25 Mbps *)
    let m = Probe.span tr s_create (fun () -> Machine.create ()) in
    let program =
      Probe.span tr s_build (fun () ->
          Kernel.build (Kernel.default_config ~rate_mbps:25.0))
    in
    Probe.span tr s_install (fun () ->
        Machine.boot m program ~entry:Kernel.entry);
    warm tr m ~cycles:(cycles_of_s m warmup_s);
    { m; mon = None; program; kernel = true; session = None }

(* ---------------------------------------------------------------- *)
(* Simulated-work counters                                           *)
(* ---------------------------------------------------------------- *)

type snap = {
  cycles : int64;
  instrs : int64;
  busy : (string * int64) list;
  frames : int;
  bytes : int64;
  scsi_reads : int;
  pit_ticks : int;
  flight : int;
  tlb_hits : int64;
  tlb_misses : int64;
  icache_hits : int;
  icache_misses : int;
  blocks_compiled : int;
  block_hits : int;
  block_invals : int;
  mstats : Monitor.stats option;
}

let snap ?mon m =
  let cpu = Machine.cpu m in
  let mmu = Cpu.mmu cpu in
  let pit = match mon with Some mon -> Monitor.virtual_pit mon | None -> Machine.pit m in
  {
    cycles = Machine.now m;
    instrs = Cpu.instructions_retired cpu;
    busy = Stats.busy_by_category (Machine.load m);
    frames = Nic.frames_sent (Machine.nic m);
    bytes = Nic.bytes_sent (Machine.nic m);
    scsi_reads = Scsi.reads_completed (Machine.scsi m);
    pit_ticks = Pit.ticks_fired pit;
    flight = Flight.total (Machine.flight m);
    tlb_hits = Mmu.tlb_hits mmu;
    tlb_misses = Mmu.tlb_misses mmu;
    icache_hits = Cpu.icache_hits cpu;
    icache_misses = Cpu.icache_misses cpu;
    blocks_compiled = Cpu.blocks_compiled cpu;
    block_hits = Cpu.block_hits cpu;
    block_invals = Cpu.block_invalidations cpu;
    mstats = Option.map Monitor.stats mon;
  }

let busy_categories =
  [ "guest"; "mon_cpu"; "mon_pic"; "mon_pit"; "mon_io"; "mon_shadow"; "irq"; "stub" ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Simulated work between two snapshots, as raw counts.  Names with a
   dot are per-layer metrics; the others only feed the ratios below. *)
let work (a : snap) (b : snap) =
  let d64 x y = Int64.to_float (Int64.sub y x) in
  let di x y = float_of_int (y - x) in
  let mon f =
    match b.mstats with
    | None -> 0.0
    | Some y -> di (match a.mstats with Some x -> f x | None -> 0) (f y)
  in
  let busy cat l = Option.value ~default:0L (List.assoc_opt cat l) in
  [
    ("instrs", d64 a.instrs b.instrs);
    ("icache_hits", di a.icache_hits b.icache_hits);
    ("icache_misses", di a.icache_misses b.icache_misses);
    ("block_hits", di a.block_hits b.block_hits);
    ("tlb_misses", d64 a.tlb_misses b.tlb_misses);
    ("cpu.blocks_compiled", di a.blocks_compiled b.blocks_compiled);
    ("cpu.block_invalidations", di a.block_invals b.block_invals);
    ("mmu.tlb_hits", d64 a.tlb_hits b.tlb_hits);
    ("shadow.fills", mon (fun s -> s.Monitor.shadow_fills));
    ("nic.frames", di a.frames b.frames);
    ("nic.bytes", d64 a.bytes b.bytes);
    ("scsi.segments", di a.scsi_reads b.scsi_reads);
    ("pit.ticks", di a.pit_ticks b.pit_ticks);
    ("monitor.world_switches", mon (fun s -> s.Monitor.world_switches));
    ("monitor.pic_emulations", mon (fun s -> s.Monitor.pic_emulations));
    ("monitor.pit_emulations", mon (fun s -> s.Monitor.pit_emulations));
    ("monitor.cpu_emulations", mon (fun s -> s.Monitor.cpu_emulations));
    ("monitor.io_emulations", mon (fun s -> s.Monitor.io_emulations));
    ("monitor.reflected_irqs", mon (fun s -> s.Monitor.reflected_irqs));
    ("monitor.reflected_faults", mon (fun s -> s.Monitor.reflected_faults));
    ("flight.events", di a.flight b.flight);
  ]
  @ List.map
      (fun cat -> ("load.sim_busy." ^ cat, d64 (busy cat a.busy) (busy cat b.busy)))
      busy_categories

(* Per-layer counts from raw work, ratios included.  They are
   deterministic: a host-only change must leave every one unchanged. *)
let counts_of_work raw =
  let get k = List.assoc k raw in
  List.filter (fun (k, _) -> String.contains k '.') raw
  @ [
      ( "cpu.icache_hit_ratio",
        ratio (get "icache_hits") (get "icache_hits" +. get "icache_misses") );
      ( "cpu.block_hit_ratio",
        ratio (get "block_hits") (get "block_hits" +. get "cpu.blocks_compiled") );
      ("mmu.tlb_hit_ratio", ratio (get "mmu.tlb_hits") (get "mmu.tlb_hits" +. get "tlb_misses"));
      ("monitor.switches_per_frame", ratio (get "monitor.world_switches") (get "nic.frames"));
      ("flight.events_per_kinstr", ratio (get "flight.events") (get "instrs" /. 1000.0));
    ]

let counts a b = counts_of_work (work a b)

let zero_snap =
  {
    cycles = 0L;
    instrs = 0L;
    busy = [];
    frames = 0;
    bytes = 0L;
    scsi_reads = 0;
    pit_ticks = 0;
    flight = 0;
    tlb_hits = 0L;
    tlb_misses = 0L;
    icache_hits = 0;
    icache_misses = 0;
    blocks_compiled = 0;
    block_hits = 0;
    block_invals = 0;
    mstats = None;
  }

let monitor_fields (s : Monitor.stats) =
  let i k v = (k, string_of_int v) in
  [
    i "world_switches" s.world_switches;
    i "pic_emulations" s.pic_emulations;
    i "pit_emulations" s.pit_emulations;
    i "cpu_emulations" s.cpu_emulations;
    i "io_emulations" s.io_emulations;
    i "shadow_fills" s.shadow_fills;
    i "reflected_irqs" s.reflected_irqs;
    i "reflected_faults" s.reflected_faults;
    i "hypercalls" s.hypercalls;
    i "escalations" s.escalations;
    i "link_retransmits" s.link_retransmits;
    i "link_bad_checksums" s.link_bad_checksums;
    i "link_resets" s.link_resets;
    i "link_downs" s.link_downs;
    i "injected_faults" s.injected_faults;
    i "wedge_breakins" s.wedge_breakins;
    i "crashes" s.crashes;
    i "restarts" s.restarts;
  ]

let kernel_fields (c : Kernel.counters) =
  let i k v = ("k." ^ k, string_of_int v) in
  [
    i "ticks" c.ticks;
    i "segments_issued" c.segments_issued;
    i "segments_done" c.segments_done;
    i "frames_sent" c.frames_sent;
    i "bytes_sent" c.bytes_sent;
    i "reads_skipped" c.reads_skipped;
    i "nic_full_spins" c.nic_full_spins;
    i "tx_acked" c.tx_acked;
    i "scsi_retries" c.scsi_retries;
    i "scsi_drops" c.scsi_drops;
    i "nic_tx_resets" c.nic_tx_resets;
  ]

(* Cycles, retirements, busy cycles, NIC output, guest counters (the
   kernel's counter block, or the registers of a bare loop) and monitor
   statistics. *)
let state_digest r =
  let cpu = Machine.cpu r.m in
  let guest =
    if r.kernel then kernel_fields (Kernel.read_counters (Machine.mem r.m) r.program)
    else
      List.init Isa.num_regs (fun i ->
          (Printf.sprintf "r%d" i, string_of_int (Cpu.read_reg cpu i)))
      @ [ ("pc", string_of_int (Cpu.pc cpu)) ]
  in
  let mon = match r.mon with Some mon -> monitor_fields (Monitor.stats mon) | None -> [] in
  Probe.digest (Probe.machine_fields r.m @ guest @ mon)

(* ---------------------------------------------------------------- *)
(* Unit results                                                      *)
(* ---------------------------------------------------------------- *)

type result = {
  unit_ns : int;
  sim_s : float;  (** simulated seconds of the measured phase *)
  sim_host_ns : int;  (** host time of the measured phase *)
  words : float;  (** minor words allocated in the measured phase *)
  instrs : float;  (** guest instructions retired in the measured phase *)
  ops_ms : float list;  (** host ms per operation *)
  attempted : int;
  failed : int;
  digest : string;
  counts : (string * float) list;  (** per-layer simulated work *)
  cmd_sim_ms : float list;  (** debug-session: simulated ms per command *)
  session : (string * float) list;  (** debug-session link counters *)
  problems : string list;
}

let empty_result =
  {
    unit_ns = 0;
    sim_s = 0.0;
    sim_host_ns = 0;
    words = 0.0;
    instrs = 0.0;
    ops_ms = [];
    attempted = 0;
    failed = 0;
    digest = "";
    counts = [];
    cmd_sim_ms = [];
    session = [];
    problems = [];
  }

let ms_of_ns ns = float_of_int ns /. 1e6

(* Drive [r] through [ops] slices of one simulated millisecond each,
   timing every slice.  Absolute targets keep the slices on a fixed
   grid whatever the overshoot of the last instruction. *)
let run_slices tr r ~ops =
  let m = r.m in
  let ms = cycles_of_s m 0.001 in
  let base = Machine.now m in
  let times = Array.make ops 0.0 in
  Probe.span tr s_window (fun () ->
      for k = 1 to ops do
        let t0 = Probe.now_ns () in
        Probe.advance tr m ~time:(Int64.add base (Int64.mul ms (Int64.of_int k)));
        times.(k - 1) <- ms_of_ns (Probe.now_ns () - t0)
      done);
  Array.to_list times

(* Time the measured phase [f] of a unit on the host and in minor words. *)
let measured r f =
  let s0 = snap ?mon:r.mon r.m in
  let w0 = Gc.minor_words () in
  let t0 = Probe.now_ns () in
  let x = f () in
  let host = Probe.now_ns () - t0 in
  let words = Gc.minor_words () -. w0 in
  let s1 = snap ?mon:r.mon r.m in
  (x, s0, s1, host, words)

let finish ~t_start r (s0, s1, host, words) res =
  {
    res with
    unit_ns = Probe.now_ns () - t_start;
    sim_s = sim_s_of r.m (Int64.sub s1.cycles s0.cycles);
    sim_host_ns = host;
    words;
    instrs = Int64.to_float (Int64.sub s1.instrs s0.instrs);
    digest = state_digest r;
    counts = counts s0 s1;
  }

let guest_counters r = Kernel.read_counters (Machine.mem r.m) r.program
let monitor_of r = Option.get r.mon

let stream_unit tr =
  let t_start = Probe.now_ns () in
  let r = setup tr Stream_lw_sat in
  let k0 = guest_counters r in
  let ops_ms, s0, s1, host, words =
    measured r (fun () -> run_slices tr r ~ops:stream_window_ms)
  in
  let k1 = guest_counters r in
  let window_s = sim_s_of r.m (Int64.sub s1.cycles s0.cycles) in
  let mbps = Int64.to_float (Int64.sub s1.bytes s0.bytes) *. 8.0 /. window_s /. 1e6 in
  let issued = k1.segments_issued - k0.segments_issued in
  let lost =
    k1.scsi_drops - k0.scsi_drops + (k1.nic_tx_resets - k0.nic_tx_resets)
  in
  let problems =
    (if mbps < 0.95 *. stream_rate_mbps then
       [ Printf.sprintf "stream sustained %.1f of %.0f Mbps" mbps stream_rate_mbps ]
     else [])
    @ if Monitor.crashed (monitor_of r) then [ "guest crashed" ] else []
  in
  finish ~t_start r (s0, s1, host, words)
    {
      empty_result with
      ops_ms;
      attempted = max 1 issued;
      failed = (if problems = [] then lost else max 1 issued);
      problems;
    }

let cpu_unit tr =
  let t_start = Probe.now_ns () in
  let r = setup tr Cpu_bound in
  let ops_ms, s0, s1, host, words =
    measured r (fun () -> run_slices tr r ~ops:cpu_window_ms)
  in
  let cpu = Machine.cpu r.m in
  (* r1 counts laps; a lap's first instruction bumps it *)
  let laps = Cpu.read_reg cpu 1 in
  let body = Int64.to_int (Cpu.instructions_retired cpu) - cpu_loop_prologue in
  let expected = (body + cpu_loop_lap - 1) / cpu_loop_lap in
  let problems =
    (if laps <> expected then
       [ Printf.sprintf "loop counter %d, %d retired implies %d laps" laps body expected ]
     else [])
    @ if Monitor.crashed (monitor_of r) then [ "guest crashed" ] else []
  in
  finish ~t_start r (s0, s1, host, words)
    {
      empty_result with
      ops_ms;
      attempted = 1;
      failed = (if problems = [] then 0 else 1);
      problems;
    }

(* ---------------------------------------------------------------- *)
(* debug-session                                                     *)
(* ---------------------------------------------------------------- *)

type cmd =
  | Regs
  | Mem of int
  | Bp_insert
  | Bp_remove
  | Halt
  | Step
  | Continue

(* The kind of a command, for per-kind latency. *)
let cmd_kind = function
  | Regs -> "regs"
  | Mem _ -> "mem"
  | Bp_insert -> "break"
  | Bp_remove -> "delete"
  | Halt -> "halt"
  | Step -> "step"
  | Continue -> "continue"

let cmd_kinds = [ "regs"; "mem"; "break"; "delete"; "halt"; "step"; "continue" ]

let cmd_name = function
  | Regs -> "regs"
  | Mem addr -> Printf.sprintf "mem 0x%x" addr
  | Bp_insert -> "break scsi_drop"
  | Bp_remove -> "delete scsi_drop"
  | Halt -> "halt"
  | Step -> "step"
  | Continue -> "continue"

(* The command sequence: 32 commands of each of the seven kinds —
   register reads, 256-byte reads of kernel text, breakpoint inserts
   and removes on the never-executed [scsi_drop] site (in pairs), and
   halts, steps and continues (in cycles) — in an order and at
   addresses drawn from the seed.  No measured or published mix of
   debugger commands was at hand, so every kind weighs the same; the
   mix is the same for every seed.  A command's host time depends on
   what the guest is doing when it is issued, so each kind appears in
   many places in the order, and the latency of each kind, and of the
   mix, is an average over many contexts rather than over the few that
   one seed's short order would give.  Latency is also reported per
   kind, so a change to one kind shows whatever the mix's percentiles
   do. *)
let per_kind = 32

let script ~seed =
  let program = Kernel.build (Kernel.default_config ~rate_mbps:debug_rate_mbps) in
  let lo = program.Asm.origin in
  let hi = Asm.symbol program "counters" - mem_read_len in
  let rng = Random.State.make [| seed |] in
  let mem () = [ Mem (lo + (4 * Random.State.int rng (((hi - lo) / 4) + 1))) ] in
  let groups =
    Array.of_list
      (List.init per_kind (fun _ -> [ Regs ])
      @ List.init per_kind (fun _ -> mem ())
      @ List.init per_kind (fun _ -> [ Bp_insert; Bp_remove ])
      @ List.init per_kind (fun _ -> [ Halt; Step; Continue ]))
  in
  for i = Array.length groups - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let g = groups.(i) in
    groups.(i) <- groups.(j);
    groups.(j) <- g
  done;
  List.concat (Array.to_list groups)

let run_cmd r session cmd =
  let site = Asm.symbol r.program "scsi_drop" in
  match cmd with
  | Regs -> (
    match Session.read_registers session with
    | Some regs when Array.length regs > 0 -> None
    | Some _ -> Some "empty register set"
    | None -> Some "no answer")
  | Mem addr -> (
    match Session.read_memory session ~addr ~len:mem_read_len with
    | None -> Some "no answer"
    | Some got ->
      if Some got = Monitor.guest_read (monitor_of r) ~addr ~len:mem_read_len then None
      else Some "bytes differ from Monitor.guest_read")
  | Bp_insert -> if Session.insert_breakpoint session site then None else Some "refused"
  | Bp_remove -> if Session.remove_breakpoint session site then None else Some "refused"
  | Halt -> (match Session.halt session with Some _ -> None | None -> Some "no stop report")
  | Step -> (match Session.step session with Some _ -> None | None -> Some "no stop report")
  | Continue -> (
    Session.continue_ session;
    match Session.is_running session with
    | Some true -> None
    | Some false | None -> Some "target not running")

let debug_unit ~commands tr =
  let t_start = Probe.now_ns () in
  let r = setup tr Debug_session in
  let session = Option.get r.session in
  let stub = Monitor.stub (monitor_of r) in
  let m = r.m in
  let think = cycles_of_s m (float_of_int think_ms /. 1000.0) in
  let results, s0, s1, host, words =
    measured r (fun () ->
        List.map
          (fun cmd ->
            let c0 = Machine.now m in
            let t0 = Probe.now_ns () in
            let problem = Probe.span tr s_cmd (fun () -> run_cmd r session cmd) in
            let host_ms = ms_of_ns (Probe.now_ns () - t0) in
            let sim_ms = 1000.0 *. sim_s_of m (Int64.sub (Machine.now m) c0) in
            Probe.advance tr m ~time:(Int64.add (Machine.now m) think);
            (host_ms, sim_ms, Option.map (fun p -> cmd_name cmd ^ ": " ^ p) problem))
          commands)
  in
  let ops_ms = List.map (fun (h, _, _) -> h) results in
  let sim_ms = List.map (fun (_, s, _) -> s) results in
  let cmd_problems = List.filter_map (fun (_, _, p) -> p) results in
  let retrans = Session.retransmissions session in
  let unsolicited = Session.unsolicited_errors session in
  let problems =
    cmd_problems
    @ (if retrans > 0 then [ Printf.sprintf "%d retransmissions" retrans ] else [])
    @ if unsolicited > 0 then [ Printf.sprintf "%d unsolicited error replies" unsolicited ] else []
  in
  finish ~t_start r (s0, s1, host, words)
    {
      empty_result with
      ops_ms;
      attempted = List.length commands;
      failed = min (List.length commands) (List.length cmd_problems + retrans + unsolicited);
      problems;
      cmd_sim_ms = sim_ms;
      session =
        [
          ("session.packets_sent", float_of_int (Session.packets_sent session));
          ("session.packets_received", float_of_int (Session.packets_received session));
          ("session.retransmissions", float_of_int retrans);
          ("stub.commands_handled", float_of_int (Stub.commands_handled stub));
          ("stub.notifications_sent", float_of_int (Stub.notifications_sent stub));
        ];
    }

(* ---------------------------------------------------------------- *)
(* paper-regen                                                       *)
(* ---------------------------------------------------------------- *)

(* Fig 3.1 as [bench fig3.1] prints it: CPU load (%) per rate on real
   hardware, the LW-VMM and the full VMM; '*' marks saturation. *)
let fig31_reference =
  [
    (25.0, [ "3.5"; "14.3"; "80.5" ]);
    (50.0, [ "6.9"; "28.3"; "100.0*" ]);
    (100.0, [ "13.5"; "56.2"; "100.0*" ]);
    (150.0, [ "20.7"; "83.7"; "100.0*" ]);
    (200.0, [ "27.3"; "100.0*"; "100.0*" ]);
    (300.0, [ "41.0"; "100.0*"; "100.0*" ]);
    (400.0, [ "55.0"; "100.0*"; "100.0*" ]);
    (500.0, [ "68.5"; "100.0*"; "100.0*" ]);
    (600.0, [ "82.1"; "100.0*"; "100.0*" ]);
    (700.0, [ "83.8*"; "100.0*"; "100.0*" ]);
  ]

(* The paper's headline (Section 3) and what this model reproduces. *)
let headline_reference = ("5.43", "25.9")

let systems =
  [
    (Workload.Bare_metal, "bare");
    (Workload.Lightweight_vmm, "lw");
    (Workload.Hosted_full_vmm, "full");
  ]

let fig_cell (mm : Workload.measurement) =
  Printf.sprintf "%.1f%s" (100.0 *. mm.cpu_load)
    (if mm.achieved_mbps < 0.95 *. mm.requested_mbps then "*" else "")

let measurement_fields (mm : Workload.measurement) =
  [
    ("load", Printf.sprintf "%h" mm.cpu_load);
    ("mbps", Printf.sprintf "%h" mm.achieved_mbps);
    ("frames", string_of_int mm.frames);
    ("busy", Int64.to_string mm.busy_cycles);
  ]
  @ kernel_fields mm.counters

let fig_points = List.length fig31_reference * List.length systems

(* The sweep's own first point is prepared inside [Workload.run]; the
   unit starts with the same set-up done by parts, so that a traced unit
   times the set-up steps ([setup.*]). *)
let paper_unit ~between tr =
  let t_start = Probe.now_ns () in
  ignore (setup tr Paper_regen : ready);
  let ops = ref [] in
  let problems = ref [] in
  let fields = ref [] in
  let sim_s = ref 0.0 and fig_host = ref 0 and words = ref 0.0 and instrs = ref 0.0 in
  let totals = ref (work zero_snap zero_snap) in
  let timed name f =
    let t0 = Probe.now_ns () in
    let x = Probe.span tr (span_id name) f in
    let dt = Probe.now_ns () - t0 in
    ops := ms_of_ns dt :: !ops;
    (x, dt)
  in
  List.iter
    (fun (rate, expected) ->
      List.iter2
        (fun (sys, tag) want ->
          between ();
          let w0 = Gc.minor_words () in
          let (mm, ctx), dt =
            timed ("harness.fig31." ^ tag) (fun () ->
                Workload.run sys ~rate_mbps:rate ~duration_s:0.25)
          in
          words := !words +. (Gc.minor_words () -. w0);
          fig_host := !fig_host + dt;
          let m = Workload.machine_of ctx in
          let mon = match ctx with Workload.Ctx_lw mon -> Some mon | _ -> None in
          let s = snap ?mon m in
          sim_s := !sim_s +. sim_s_of m s.cycles;
          instrs := !instrs +. Int64.to_float s.instrs;
          totals :=
            List.map2 (fun (k, t) (_, v) -> (k, t +. v)) !totals (work zero_snap s);
          fields := !fields @ measurement_fields mm;
          let got = fig_cell mm in
          if got <> want then
            problems :=
              Printf.sprintf "Fig 3.1 %s at %.0f Mbps: %s%%, reference %s%%" tag rate got want
              :: !problems)
        systems expected)
    fig31_reference;
  let rates =
    List.map
      (fun (sys, tag) ->
        between ();
        fst
          (timed ("harness.headline." ^ tag) (fun () ->
               Workload.max_sustainable_rate ~duration_s:0.2 sys ~lo:5.0 ~hi:1000.0 ~steps:11)))
      systems
  in
  let bare, lw, full =
    match rates with [ b; l; f ] -> (b, l, f) | _ -> assert false
  in
  let ratio_lw_full = Printf.sprintf "%.2f" (lw /. full) in
  let pct_lw_bare = Printf.sprintf "%.1f" (100.0 *. lw /. bare) in
  let headline_bad =
    (if ratio_lw_full <> fst headline_reference then 1 else 0)
    + (if pct_lw_bare <> snd headline_reference then 1 else 0)
  in
  if headline_bad > 0 then
    problems :=
      Printf.sprintf "headline %sx / %s%%, reference %sx / %s%%" ratio_lw_full pct_lw_bare
        (fst headline_reference) (snd headline_reference)
      :: !problems;
  let fig_bad = List.length !problems - (if headline_bad > 0 then 1 else 0) in
  ( {
    empty_result with
    unit_ns = Probe.now_ns () - t_start;
    sim_s = !sim_s;
    sim_host_ns = !fig_host;
    words = !words;
    instrs = !instrs;
    ops_ms = List.rev !ops;
    attempted = fig_points + List.length systems;
    failed = fig_bad + headline_bad;
    digest =
      Probe.digest
        (!fields
        @ List.map2 (fun (_, tag) v -> ("max." ^ tag, Printf.sprintf "%h" v)) systems rates);
    counts = counts_of_work !totals;
    problems = List.rev !problems;
  },
    Printf.sprintf "lw/full = %sx (paper 5.4x), lw/bare = %s%% (paper ~26%%)"
      ratio_lw_full pct_lw_bare )

(* [run_unit ~commands ~between tr w] — one unit of workload [w]; the
   string is a line worth printing (paper-regen: the headline beside the
   paper's).  Paper-regen's units are long, so it calls [between ()]
   between its harness calls, for host calibration. *)
let run_unit ~commands ~between tr = function
  | Stream_lw_sat -> (stream_unit tr, None)
  | Cpu_bound -> (cpu_unit tr, None)
  | Debug_session -> (debug_unit ~commands tr, None)
  | Paper_regen ->
    let res, line = paper_unit ~between tr in
    (res, Some line)
