module Machine = Vmm_hw.Machine
module Cpu = Vmm_hw.Cpu
module Isa = Vmm_hw.Isa
module Mmu = Vmm_hw.Mmu
module Pic = Vmm_hw.Pic
module Pit = Vmm_hw.Pit
module Io_bus = Vmm_hw.Io_bus
module Phys_mem = Vmm_hw.Phys_mem
module Costs = Vmm_hw.Costs
module Asm = Vmm_hw.Asm
module Shadow = Core.Shadow
module Vm_layout = Core.Vm_layout

type stats = {
  host_switches : int;
  host_syscalls : int;
  device_forwards : int;
  packets_forwarded : int;
  disk_transfers_forwarded : int;
  bytes_copied : int;
  reflected_irqs : int;
  cpu_emulations : int;
  shadow_fills : int;
}

type t = {
  machine : Machine.t;
  cpu : Cpu.t;
  costs : Costs.t;
  layout : Vm_layout.t;
  shadow : Shadow.t;
  vpic : Pic.t;
  mutable vpit : Pit.t option;
  mutable v_if : bool;
  mutable v_iht : int;
  mutable v_ptb : int;
  mutable v_cpl : int;
  v_stacks : int array;
  mutable v_halted : bool;
  mutable dead : bool;  (** guest crashed; hosted VMM just parks it *)
  mutable shutdown : bool;
  (* device shadow registers, observed as the guest programs them *)
  mutable nic_tx_len : int;
  mutable scsi_count : int;
  (* counters *)
  mutable c_host : int;
  mutable c_syscall : int;
  mutable c_forward : int;
  mutable c_packets : int;
  mutable c_disk : int;
  mutable c_copied : int;
  mutable c_irq : int;
  mutable c_cpu : int;
}

let real_ring_of_vring vring = if vring land 3 = 3 then 3 else 1

let get_vpit t = match t.vpit with Some p -> p | None -> assert false

let charge t cycles = Cpu.charge t.cpu cycles

(* Every guest exit goes through the host OS scheduler and back. *)
let host_round_trip t =
  t.c_host <- t.c_host + 1;
  charge t t.costs.Costs.host_switch

let host_syscall t =
  t.c_syscall <- t.c_syscall + 1;
  charge t t.costs.Costs.host_syscall

(* -- Guest-virtual memory (same approach as the monitor) -- *)

let translate_guest t vaddr =
  let vaddr = vaddr land 0xFFFFFFFF in
  if t.v_ptb = 0 then
    if Vm_layout.guest_owns t.layout vaddr then Some vaddr else None
  else
    match Mmu.probe (Machine.mem t.machine) ~ptb:t.v_ptb vaddr with
    | Some pte ->
      let frame = Mmu.frame_of pte in
      if Vm_layout.guest_owns t.layout frame then
        Some (frame lor (vaddr land 0xFFF))
      else None
    | None -> None

let guest_read_u32 t vaddr =
  match translate_guest t vaddr with
  | Some paddr when vaddr land 0xFFF <= Mmu.page_size - 4 ->
    Some (Phys_mem.read_u32 (Machine.mem t.machine) paddr)
  | Some _ | None -> None

let guest_write_u32 t vaddr v =
  match translate_guest t vaddr with
  | Some paddr when vaddr land 0xFFF <= Mmu.page_size - 4 ->
    Phys_mem.write_u32 (Machine.mem t.machine) paddr v;
    true
  | Some _ | None -> false

let guest_flags_word t =
  Cpu.flags_word t.cpu land 0x7
  lor (if t.v_if then 0x200 else 0)
  lor (t.v_cpl lsl 12)

let set_guest_flags t w =
  let real = Cpu.flags_word t.cpu in
  Cpu.set_flags_word t.cpu (real land lnot 0x7 lor (w land 0x7));
  Cpu.set_interrupts_enabled t.cpu true;
  t.v_if <- w land 0x200 <> 0;
  t.v_cpl <- (w lsr 12) land 3;
  Cpu.set_cpl t.cpu (real_ring_of_vring t.v_cpl)

(* A hosted VMM has no independent debug channel: a crashed guest is
   simply parked (the user restarts the VM). *)
let park t =
  t.dead <- true;
  Cpu.set_stopped t.cpu true

let read_guest_gate t vector =
  if vector < 0 || vector >= 64 then None
  else
    let base = t.v_iht + (8 * vector) in
    match (guest_read_u32 t base, guest_read_u32 t (base + 4)) with
    | Some handler, Some info when info land 1 <> 0 ->
      Some (handler, (info lsr 1) land 3)
    | _ -> None

let rec reflect t ~vector ~error ~return_pc ~depth =
  match read_guest_gate t vector with
  | None ->
    if depth > 0 || vector = Isa.vec_protection then park t
    else
      reflect t ~vector:Isa.vec_protection ~error:vector ~return_pc
        ~depth:(depth + 1)
  | Some (handler, target_vring) ->
    let sp0 =
      if target_vring < t.v_cpl then t.v_stacks.(target_vring)
      else Cpu.read_reg t.cpu Isa.sp
    in
    let flags = guest_flags_word t in
    let push sp v = if guest_write_u32 t (sp - 4) v then Some (sp - 4) else None in
    let frame =
      match push sp0 (Cpu.read_reg t.cpu Isa.sp) with
      | Some sp1 ->
        (match push sp1 flags with
         | Some sp2 ->
           (match push sp2 (return_pc land 0xFFFFFFFF) with
            | Some sp3 -> push sp3 (error land 0xFFFFFFFF)
            | None -> None)
         | None -> None)
      | None -> None
    in
    (match frame with
     | Some sp4 ->
       Cpu.write_reg t.cpu Isa.sp sp4;
       t.v_cpl <- target_vring;
       Cpu.set_cpl t.cpu (real_ring_of_vring target_vring);
       t.v_if <- false;
       Cpu.set_pc t.cpu handler;
       charge t t.costs.Costs.interrupt_delivery
     | None -> park t)

let kick t =
  if t.v_if && (not (Cpu.stopped t.cpu)) && Pic.pending t.vpic then
    match Pic.ack t.vpic with
    | Some vvector ->
      t.c_irq <- t.c_irq + 1;
      if t.v_halted then begin
        t.v_halted <- false;
        Cpu.set_halted t.cpu false
      end;
      reflect t ~vector:vvector ~error:0 ~return_pc:(Cpu.pc t.cpu) ~depth:0
    | None -> ()

let virtual_irq t line =
  Pic.raise_irq t.vpic line;
  if t.v_halted && t.v_if && Pic.pending t.vpic then begin
    t.v_halted <- false;
    Cpu.set_halted t.cpu false
  end;
  kick t

(* -- Privileged CPU emulation (host application doing the work) -- *)

let emulate_privileged t instr pc =
  t.c_cpu <- t.c_cpu + 1;
  host_round_trip t;
  charge t t.costs.Costs.emulate_cpu;
  let next = (pc + Isa.width) land 0xFFFFFFFF in
  let reg r = Cpu.read_reg t.cpu r in
  match instr with
  | Isa.Sti ->
    t.v_if <- true;
    Cpu.set_pc t.cpu next;
    kick t
  | Isa.Cli ->
    t.v_if <- false;
    Cpu.set_pc t.cpu next
  | Isa.Hlt ->
    t.v_halted <- true;
    Cpu.set_pc t.cpu next;
    if t.v_if && Pic.pending t.vpic then kick t
    else Cpu.set_halted t.cpu true
  | Isa.Iret ->
    let sp = Cpu.read_reg t.cpu Isa.sp in
    (match
       ( guest_read_u32 t sp,
         guest_read_u32 t (sp + 4),
         guest_read_u32 t (sp + 8),
         guest_read_u32 t (sp + 12) )
     with
     | Some _error, Some return_pc, Some flags, Some old_sp ->
       set_guest_flags t flags;
       Cpu.write_reg t.cpu Isa.sp old_sp;
       Cpu.set_pc t.cpu return_pc;
       kick t
     | _ -> park t)
  | Isa.Liht r ->
    t.v_iht <- reg r;
    Cpu.set_pc t.cpu next
  | Isa.Lptb r ->
    t.v_ptb <- reg r;
    Shadow.clear t.shadow;
    Cpu.set_ptb t.cpu (Shadow.root t.shadow);
    charge t t.costs.Costs.shadow_pt_sync;
    Cpu.set_pc t.cpu next
  | Isa.Lstk (ring, r) ->
    t.v_stacks.(ring land 3) <- reg r;
    Cpu.set_pc t.cpu next
  | Isa.Tlbflush ->
    Shadow.clear t.shadow;
    Cpu.set_ptb t.cpu (Shadow.root t.shadow);
    Cpu.set_pc t.cpu next
  | Isa.Nop | Isa.Movi _ | Isa.Mov _ | Isa.Add _ | Isa.Addi _ | Isa.Sub _
  | Isa.And_ _ | Isa.Or_ _ | Isa.Xor_ _ | Isa.Shl _ | Isa.Shr _ | Isa.Mul _
  | Isa.Cmp _ | Isa.Cmpi _ | Isa.Ld _ | Isa.St _ | Isa.Ldb _ | Isa.Stb _
  | Isa.Jmp _ | Isa.Jz _ | Isa.Jnz _ | Isa.Jlt _ | Isa.Jge _ | Isa.Jb _
  | Isa.Jae _ | Isa.Jr _ | Isa.Call _ | Isa.Ret | Isa.Push _ | Isa.Pop _
  | Isa.In_ _ | Isa.Ini _ | Isa.Out _ | Isa.Outi _ | Isa.Int_ _ | Isa.Copy _
  | Isa.Csum _ | Isa.Rdtsc _ | Isa.Vmcall _ | Isa.Brk ->
    park t

(* -- Device forwarding through the host OS -- *)

let nic_base = Machine.Ports.nic
let scsi_base = Machine.Ports.scsi
let pic_base = Machine.Ports.pic
let pit_base = Machine.Ports.pit

(* Extra host-side work for data-carrying operations: the hosted VMM
   copies the payload between guest memory and host buffers and runs the
   host network/disk stack. *)
let charge_host_data t bytes =
  t.c_copied <- t.c_copied + bytes;
  charge t (Costs.cycles_for_bytes ~per_byte:t.costs.Costs.host_io_per_byte bytes)

let forward_out t port value =
  t.c_forward <- t.c_forward + 1;
  host_syscall t;
  if port = nic_base + 1 then t.nic_tx_len <- value
  else if port = scsi_base + 2 then t.scsi_count <- value;
  if port = nic_base + 2 && value land 3 = 1 then begin
    (* packet send: host network-stack path plus a bounce copy *)
    t.c_packets <- t.c_packets + 1;
    charge t t.costs.Costs.host_packet_overhead;
    charge_host_data t t.nic_tx_len
  end
  else if port = scsi_base + 4 && value land 3 <> 0 then begin
    (* disk transfer: host file-system path plus a bounce copy *)
    t.c_disk <- t.c_disk + 1;
    charge t t.costs.Costs.host_packet_overhead;
    charge_host_data t t.scsi_count
  end;
  Io_bus.write (Machine.bus t.machine) port value

let forward_in t port =
  t.c_forward <- t.c_forward + 1;
  host_syscall t;
  Io_bus.read (Machine.bus t.machine) port

let emulated_in t port =
  if port >= pic_base && port < pic_base + 3 then
    Pic.io_read t.vpic (port - pic_base)
  else if port >= pit_base && port < pit_base + 3 then
    Pit.io_read (get_vpit t) (port - pit_base)
  else forward_in t port

let emulated_out t port value =
  if port >= pic_base && port < pic_base + 3 then begin
    Pic.io_write t.vpic (port - pic_base) value;
    kick t
  end
  else if port >= pit_base && port < pit_base + 3 then
    Pit.io_write (get_vpit t) (port - pit_base) value
  else forward_out t port value

let emulate_io t port pc =
  host_round_trip t;
  let cpu = t.cpu in
  let reg = Cpu.io_reg cpu in
  if Cpu.io_is_in cpu then Cpu.write_reg cpu reg (emulated_in t port)
  else emulated_out t port (Cpu.read_reg cpu reg);
  Cpu.set_pc cpu ((pc + Isa.width) land 0xFFFFFFFF)

(* -- Page faults (same shadow mechanism, hosted costs) -- *)

let fill_shadow t ~vaddr ~frame ~writable ~user =
  (try Shadow.map t.shadow ~vaddr ~frame ~writable ~user
   with Shadow.Out_of_shadow_memory ->
     Shadow.clear t.shadow;
     Cpu.set_ptb t.cpu (Shadow.root t.shadow);
     Shadow.map t.shadow ~vaddr ~frame ~writable ~user);
  Cpu.flush_tlb t.cpu;
  charge t t.costs.Costs.shadow_pt_sync

let handle_page_fault t (f : Mmu.fault) pc =
  host_round_trip t;
  let vaddr = f.Mmu.vaddr in
  if t.v_ptb = 0 then begin
    if Vm_layout.guest_owns t.layout vaddr then
      fill_shadow t ~vaddr ~frame:(vaddr land lnot 0xFFF) ~writable:true ~user:true
    else reflect t ~vector:Isa.vec_page_fault ~error:vaddr ~return_pc:pc ~depth:0
  end
  else
    match Mmu.probe (Machine.mem t.machine) ~ptb:t.v_ptb vaddr with
    | Some pte ->
      let frame = Mmu.frame_of pte in
      let writable = Mmu.is_writable pte and user = Mmu.is_user pte in
      let guest_allows =
        Vm_layout.guest_owns t.layout frame
        && (match f.Mmu.access with
           | Mmu.Write -> writable
           | Mmu.Read | Mmu.Exec -> true)
        && (t.v_cpl < 3 || user)
      in
      if guest_allows then fill_shadow t ~vaddr ~frame ~writable ~user
      else reflect t ~vector:Isa.vec_page_fault ~error:vaddr ~return_pc:pc ~depth:0
    | None ->
      reflect t ~vector:Isa.vec_page_fault ~error:vaddr ~return_pc:pc ~depth:0

(* -- Interrupts arrive at the host first -- *)

let handle_real_irq t vector =
  (* host IRQ handler -> VMM application wakeup -> virtual delivery *)
  host_round_trip t;
  host_syscall t;
  let line = vector - Pic.vector_base (Machine.pic t.machine) in
  Pic.io_write (Machine.pic t.machine) 0 0x20;
  virtual_irq t line

let handle_fault t kind pc =
  match kind with
  | Cpu.Gp (Cpu.Privileged_instruction instr) ->
    if t.v_cpl = 0 then emulate_privileged t instr pc
    else begin
      host_round_trip t;
      reflect t ~vector:Isa.vec_protection ~error:0 ~return_pc:pc ~depth:0
    end
  | Cpu.Gp (Cpu.Io_denied port) ->
    if t.v_cpl = 0 then emulate_io t port pc
    else begin
      host_round_trip t;
      reflect t ~vector:Isa.vec_protection ~error:port ~return_pc:pc ~depth:0
    end
  | Cpu.Gp _ ->
    host_round_trip t;
    reflect t ~vector:Isa.vec_protection ~error:0 ~return_pc:pc ~depth:0
  | Cpu.Page f -> handle_page_fault t f pc
  | Cpu.Breakpoint_trap | Cpu.Step_trap ->
    (* no debugging facility: treat like a guest fault *)
    host_round_trip t;
    reflect t ~vector:Isa.vec_breakpoint ~error:0 ~return_pc:pc ~depth:0
  | Cpu.Undefined opcode ->
    host_round_trip t;
    reflect t ~vector:Isa.vec_undefined ~error:opcode ~return_pc:pc ~depth:0
  | Cpu.Machine_check _ ->
    host_round_trip t;
    park t

let handle_hypercall t imm =
  host_round_trip t;
  match imm with
  | 2 ->
    t.shutdown <- true;
    t.v_halted <- true;
    Cpu.set_halted t.cpu true
  | _ -> ()

let hook t _cpu event =
  (match event with
   | Cpu.Irq vector -> handle_real_irq t vector
   | Cpu.Fault (kind, pc) -> handle_fault t kind pc
   | Cpu.Soft_int (vector, next_pc) ->
     host_round_trip t;
     reflect t ~vector ~error:0 ~return_pc:next_pc ~depth:0
   | Cpu.Hypercall (imm, _) -> handle_hypercall t imm);
  Cpu.Handled

let install machine =
  let cpu = Machine.cpu machine in
  let costs = Machine.costs machine in
  let layout =
    Vm_layout.default ~mem_size:(Phys_mem.size (Machine.mem machine))
  in
  let shadow = Shadow.create ~mem:(Machine.mem machine) ~layout () in
  let t =
    {
      machine;
      cpu;
      costs;
      layout;
      shadow;
      vpic = Pic.create ();
      vpit = None;
      v_if = false;
      v_iht = 0;
      v_ptb = 0;
      v_cpl = 0;
      v_stacks = Array.make 4 0;
      v_halted = false;
      dead = false;
      shutdown = false;
      nic_tx_len = 0;
      scsi_count = 0;
      c_host = 0;
      c_syscall = 0;
      c_forward = 0;
      c_packets = 0;
      c_disk = 0;
      c_copied = 0;
      c_irq = 0;
      c_cpu = 0;
    }
  in
  t.vpit <-
    Some
      (Pit.create ~engine:(Machine.engine machine) ~costs
         ~raise_irq:(fun () -> virtual_irq t Machine.Irq.timer)
         ());
  (* No pass-through at all: the I/O bitmap stays empty. *)
  Pic.io_write (Machine.pic machine) 1 0x00;
  Cpu.set_interrupts_enabled cpu true;
  Cpu.set_ptb cpu (Shadow.root shadow);
  Cpu.set_hypervisor cpu (Some (hook t));
  t

let uninstall t = Cpu.set_hypervisor t.cpu None

let boot_guest t program ~entry =
  let size = Bytes.length program.Asm.code in
  if not (Vm_layout.guest_range_ok t.layout ~addr:program.Asm.origin ~len:size)
  then invalid_arg "Full_vmm.boot_guest: image overlaps VMM memory";
  Asm.load program (Machine.mem t.machine);
  for i = 0 to 15 do
    Cpu.write_reg t.cpu i 0
  done;
  t.v_if <- false;
  t.v_iht <- 0;
  t.v_ptb <- 0;
  t.v_cpl <- 0;
  t.v_halted <- false;
  t.dead <- false;
  t.shutdown <- false;
  Shadow.clear t.shadow;
  Cpu.set_ptb t.cpu (Shadow.root t.shadow);
  Cpu.set_cpl t.cpu 1;
  Cpu.set_interrupts_enabled t.cpu true;
  Cpu.set_trap_flag t.cpu false;
  Cpu.set_pc t.cpu entry;
  Cpu.set_halted t.cpu false;
  Cpu.set_stopped t.cpu false

let stats t =
  {
    host_switches = t.c_host;
    host_syscalls = t.c_syscall;
    device_forwards = t.c_forward;
    packets_forwarded = t.c_packets;
    disk_transfers_forwarded = t.c_disk;
    bytes_copied = t.c_copied;
    reflected_irqs = t.c_irq;
    cpu_emulations = t.c_cpu;
    shadow_fills = Shadow.fills t.shadow;
  }

let guest_halted t = t.v_halted
let machine t = t.machine
let shutdown_requested t = t.shutdown
