(* Cross-system integration tests: the same guest binary on all three
   systems, load ordering, and the harness measurement machinery. *)

module Machine = Vmm_hw.Machine
module Nic = Vmm_hw.Nic
module Kernel = Vmm_guest.Kernel
module Netfmt = Vmm_guest.Netfmt
module Monitor = Core.Monitor
module Workload = Vmm_harness.Workload

let check = Alcotest.check
let bool = Alcotest.bool

let run sys rate =
  let m, ctx = Workload.run sys ~rate_mbps:rate ~duration_s:0.1 in
  (m, ctx)

let test_all_systems_deliver_at_low_rate () =
  List.iter
    (fun sys ->
      let m, _ = run sys 20.0 in
      check bool
        (Workload.system_name sys ^ " achieves requested rate")
        true
        (abs_float (m.Workload.achieved_mbps -. 20.0) < 3.0))
    Workload.all_systems

let test_load_ordering () =
  (* At the same delivered rate the paper's ordering must hold:
     bare < lightweight < full. *)
  let load sys =
    let m, _ = run sys 25.0 in
    m.Workload.cpu_load
  in
  let bare = load Workload.Bare_metal in
  let lw = load Workload.Lightweight_vmm in
  let full = load Workload.Hosted_full_vmm in
  check bool "bare < lw" true (bare < lw);
  check bool "lw < full" true (lw < full);
  check bool "bare is light" true (bare < 0.10);
  check bool "full is heavy" true (full > 3.0 *. lw /. 2.0)

let test_same_bytes_on_all_systems () =
  (* Data integrity is system-independent: first frame payload matches the
     disk pattern everywhere. *)
  List.iter
    (fun sys ->
      let config = Kernel.default_config ~rate_mbps:20.0 in
      let ctx, _program = Workload.prepare sys ~config in
      let m = Workload.machine_of ctx in
      let first = ref None in
      Nic.set_on_frame (Machine.nic m) (fun f ->
          if !first = None then first := Some (Bytes.copy f));
      Machine.run_seconds m 0.08;
      match !first with
      | None -> Alcotest.failf "%s: no frame" (Workload.system_name sys)
      | Some f ->
        (match Netfmt.parse f with
         | None -> Alcotest.failf "%s: frame did not parse" (Workload.system_name sys)
         | Some frame ->
           String.iteri
             (fun i c ->
               let expected = Vmm_hw.Scsi.pattern_byte ~target:0 ~offset:i in
               if Char.code c <> expected then
                 Alcotest.failf "%s: byte %d mismatch" (Workload.system_name sys) i)
             frame.Netfmt.payload))
    Workload.all_systems

let test_monitor_stats_under_workload () =
  let config = Kernel.default_config ~rate_mbps:50.0 in
  let ctx, program = Workload.prepare Workload.Lightweight_vmm ~config in
  let m =
    Workload.measure ctx program ~config ~warmup_s:0.02 ~duration_s:0.1
  in
  check bool "frames measured" true (m.Workload.frames > 100);
  match ctx with
  | Workload.Ctx_lw mon ->
    let stats = Monitor.stats mon in
    (* NIC completions coalesce inside the long SCSI/send path, so the
       reflection count is per-batch, not per-frame *)
    check bool "irq reflections" true (stats.Monitor.reflected_irqs > 20);
    check bool "pit emulated (guest programming)" true
      (stats.Monitor.pit_emulations >= 3);
    check bool "no escalations" true (stats.Monitor.escalations = 0);
    (* every frame costs a send syscall (trapped INT + IRET) *)
    check bool "per-frame syscall traps" true
      (stats.Monitor.cpu_emulations > m.Workload.frames)
  | Workload.Ctx_bare _ | Workload.Ctx_full _ -> Alcotest.fail "wrong context"

let test_max_rate_band () =
  (* Keep the calibration honest: the reproduced headline figures must
     stay near the paper's (5.4x between monitors, LW ~26% of native).
     Short measurement windows, so accept generous bands. *)
  let max_of sys = Workload.max_sustainable_rate ~duration_s:0.15 sys ~lo:5.0 ~hi:1000.0 ~steps:7 in
  let bare = max_of Workload.Bare_metal in
  let lw = max_of Workload.Lightweight_vmm in
  let full = max_of Workload.Hosted_full_vmm in
  let lw_vs_bare = lw /. bare in
  let lw_vs_full = lw /. full in
  check bool
    (Printf.sprintf "lw/bare = %.2f in [0.18, 0.36]" lw_vs_bare)
    true
    (lw_vs_bare > 0.18 && lw_vs_bare < 0.36);
  check bool
    (Printf.sprintf "lw/full = %.2f in [4.0, 7.0]" lw_vs_full)
    true
    (lw_vs_full > 4.0 && lw_vs_full < 7.0)

let test_measurement_window_excludes_warmup () =
  let config = Kernel.default_config ~rate_mbps:50.0 in
  let ctx, program = Workload.prepare Workload.Bare_metal ~config in
  let m = Workload.measure ctx program ~config ~warmup_s:0.05 ~duration_s:0.1 in
  check bool "duration close to request" true
    (abs_float (m.Workload.duration_s -. 0.1) < 0.01);
  (* cumulative guest counters exceed the window's frames (warmup counted) *)
  check bool "counters cumulative" true
    (m.Workload.counters.Kernel.frames_sent > m.Workload.frames)

(* Minor words per retired instruction over [window] cycles of [m],
   after [warmup] cycles.  A deterministic count for a given build. *)
let words_per_instr m ~warmup ~window =
  let cpu = Machine.cpu m in
  Machine.run_for m ~cycles:warmup;
  let i0 = Vmm_hw.Cpu.instructions_retired cpu in
  let w0 = Gc.minor_words () in
  Machine.run_for m ~cycles:window;
  let words = Gc.minor_words () -. w0 in
  words /. Int64.to_float (Int64.sub (Vmm_hw.Cpu.instructions_retired cpu) i0)

(* Allocation ceiling at the paper's operating point: the LW-VMM
   streaming Fig 3.1's kernel at 170 Mbps, just below saturation, with
   the translator on.  This gates host-side allocation on the monitor's
   trap, emulation and flight-ring paths without timing anything.
   Measured at 3.2 in a dev build; the ceiling is never raised to
   pass. *)
let test_lw_alloc_ceiling () =
  let config = Kernel.default_config ~rate_mbps:170.0 in
  let ctx, _ = Workload.prepare Workload.Lightweight_vmm ~config in
  let m = Workload.machine_of ctx in
  Vmm_hw.Cpu.set_jit_enabled (Machine.cpu m) true;
  let second = Vmm_hw.Costs.cycles_of_seconds (Machine.costs m) in
  (* boot and reach steady streaming first *)
  let per_instr = words_per_instr m ~warmup:(second 0.02) ~window:(second 0.05) in
  check bool
    (Printf.sprintf "%.2f minor words per instruction <= 10" per_instr)
    true (per_instr <= 10.0)

(* The sim-speed compute loop as a ring-1 guest under the LW-VMM, with
   the translator on: shadow-MMU translation and compiled blocks only,
   no traps, so nothing per instruction may allocate (measured
   0.0000). *)
let test_lw_translator_alloc () =
  let module Asm = Vmm_hw.Asm in
  let m = Machine.create () in
  let mon = Monitor.install m in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Vmm_hw.Isa.sp (Asm.imm 0x8000);
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
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  Vmm_hw.Cpu.set_jit_enabled (Machine.cpu m) true;
  let per_instr = words_per_instr m ~warmup:100_000L ~window:20_000_000L in
  check bool "loop ran" true (Vmm_hw.Cpu.read_reg (Machine.cpu m) 1 > 100_000);
  check bool
    (Printf.sprintf "%.4f minor words per instruction <= 0.05" per_instr)
    true (per_instr <= 0.05)

(* The guest's data path as a ring-1 loop under the LW-VMM, with the
   translator on: each lap builds a frame the way the streaming kernel
   does — a header COPY, a 1458-byte payload COPY and a CSUM over the
   frame — all compiled ops, so nothing per instruction may allocate
   (measured 0.0005).  A lap charges about 19k cycles for its 6
   instructions, so the window is 100 times the translator-loop test's:
   the few hundred words a [run_for] call allocates once must not
   count as per-instruction cost. *)
let test_lw_data_path_alloc () =
  let module Asm = Vmm_hw.Asm in
  let m = Machine.create () in
  let mon = Monitor.install m in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm 0x20000) (* frame *);
  Asm.movi a 2 (Asm.imm (0x20000 + 42)) (* frame payload *);
  Asm.movi a 3 (Asm.imm 0x10000) (* header template *);
  Asm.movi a 4 (Asm.imm 0x30000) (* payload source *);
  Asm.movi a 5 (Asm.imm 42);
  Asm.movi a 6 (Asm.imm 1458);
  Asm.movi a 7 (Asm.imm 1500);
  Asm.label a "loop";
  Asm.copy a 1 3 5;
  Asm.copy a 2 4 6;
  Asm.csum a 8 1 7;
  Asm.add a 9 9 8;
  Asm.addi a 10 10 (Asm.imm 1);
  Asm.jmp a (Asm.lbl "loop");
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  Vmm_hw.Cpu.set_jit_enabled (Machine.cpu m) true;
  let per_instr =
    words_per_instr m ~warmup:100_000L ~window:2_000_000_000L
  in
  check bool "frames built" true
    (Vmm_hw.Cpu.read_reg (Machine.cpu m) 10 > 100_000);
  check bool
    (Printf.sprintf "%.4f minor words per instruction <= 0.05" per_instr)
    true (per_instr <= 0.05)

let () =
  Alcotest.run "integration"
    [
      ( "cross-system",
        [
          Alcotest.test_case "all deliver at low rate" `Quick
            test_all_systems_deliver_at_low_rate;
          Alcotest.test_case "load ordering" `Quick test_load_ordering;
          Alcotest.test_case "same bytes everywhere" `Quick
            test_same_bytes_on_all_systems;
          Alcotest.test_case "monitor stats under workload" `Quick
            test_monitor_stats_under_workload;
          Alcotest.test_case "headline band" `Slow test_max_rate_band;
          Alcotest.test_case "lw-vmm allocation ceiling" `Quick
            test_lw_alloc_ceiling;
          Alcotest.test_case "lw-vmm translator allocation" `Quick
            test_lw_translator_alloc;
          Alcotest.test_case "lw-vmm data path allocation" `Quick
            test_lw_data_path_alloc;
          Alcotest.test_case "measurement window" `Quick
            test_measurement_window_excludes_warmup;
        ] );
    ]
