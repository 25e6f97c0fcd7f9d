module Engine = Vmm_sim.Engine
module Stats = Vmm_sim.Stats

type gp_reason =
  | Privileged_instruction of Isa.instr
  | Io_denied of int
  | Bad_iret
  | Bad_int_gate of int
  | Bad_vector of int
  | Bad_ring of int

type fault_kind =
  | Page of Mmu.fault
  | Gp of gp_reason
  | Undefined of int
  | Breakpoint_trap
  | Step_trap
  | Machine_check of int

type event =
  | Fault of fault_kind * int
  | Irq of int
  | Soft_int of int * int
  | Hypercall of int * int

type hook_result = Handled | Deliver

exception Panic of string

exception Fault_exn of fault_kind

(* Decoded-instruction cache slot: physically tagged, validated against the
   memory write generations captured at fill time and the CPU-wide flush
   generation.  An 8-byte instruction can touch two generation granules;
   the sum of both granule generations is stored — generations only grow,
   so any store under either granule makes the sum diverge for good.  The
   slot holds the instruction compiled into an op (see [compile]). *)
type icache_slot = {
  mutable itag : int; (* physical address, -1 = invalid *)
  mutable igen : int; (* summed Phys_mem granule generations at fill *)
  mutable iflush : int; (* icache_gen at fill *)
  mutable iop : t -> unit;
}

and t = {
  mem : Phys_mem.t;
  mem_size : int;
  bus : Io_bus.t;
  engine : Engine.t;
  costs : Costs.t;
  load : Stats.load;
  mmu : Mmu.t;
  tlb_penalty : int ref; (* [Mmu.penalty mmu] *)
  regs : int array;
  mutable pc : int;
  mutable z : bool;
  mutable n : bool;
  mutable c : bool;
  mutable tf : bool;
  mutable if_ : bool;
  mutable cpl : int;
  mutable iht : int;
  mutable ptb : int;
  stacks : int array;
  io_bitmap : Bytes.t;
  mutable halted : bool;
  mutable stopped : bool;
  mutable pic_ack : unit -> int option;
  mutable pic_pending : unit -> bool;
  mutable hypervisor : (t -> event -> hook_result) option;
  (* Counters and cycle stamps are native ints, so retiring an
     instruction allocates nothing; the [int64] accessors convert. *)
  mutable retired : int;
  mutable retire_stop : (int * (t -> unit)) option;
      (* reverse-debug replay-to-N: stop when [retired] reaches the
         target, between instructions *)
  mutable irqs_taken : int;
  mutable faults : int;
  mutable sample_period : int;
      (* pc-sampling cadence in cycles; 0 = profiling off, and the
         dispatch loop pays exactly one int compare per instruction *)
  mutable next_sample : int;
  mutable sample_hook : pc:int -> cpl:int -> unit;
  fetch_buf : Bytes.t;
  icache : icache_slot array;
  mutable icache_gen : int;
  mutable ic_hits : int;
  mutable ic_misses : int;
  mutable ic_inval : int;
  (* Block translator (threaded code).  [jit_cyc]/[jit_ret] accumulate
     cycles and retirements in unboxed ints while a block chain runs and
     are flushed to the engine/stats/retired counters at every point
     where anything else could observe them; [jit_limit] is the cycle
     budget of the current chain, relative to the engine clock at chain
     entry, so the per-op continuation guard is one int compare. *)
  jcache : jblock array; (* [no_block] in empty slots *)
  mutable jit_enabled : bool;
  mutable jit_cyc : int;
  mutable jit_ret : int;
  mutable jit_limit : int;
  mutable jit_vpn : int; (* virtual page of the executing block's text *)
  mutable jit_pbase : int; (* its physical page base *)
  mutable jit_off : int;
      (* byte offset, in the executing block, of the last op that may
         fault; pc + jit_off is the faulting instruction *)
  mutable jb_compiled : int;
  mutable jb_hits : int;
  mutable jb_inval : int;
  mutable jb_chains : int;
  mutable jb_fallbacks : int;
  (* Operand of the last IN/OUT begun: its direction and its register
     (destination of an IN, source of an OUT).  Written before the port
     check, so the monitor's hook for an I/O trap reads it there. *)
  mutable io_in : bool;
  mutable io_reg : int;
}

(* Compiled basic block: a straight-line decoded run (optionally ending
   in a direct/indirect jump, call or return) compiled into a chain of
   OCaml closures — threaded code.  Like an icache slot it is physically
   tagged and validated against the granule write generations captured
   over its whole text at compile time plus the CPU-wide flush stamp, so
   self-modifying stores, DMA over text, breakpoint patching and
   LPTB/TLBFLUSH invalidate it exactly as they invalidate decoded
   instructions today. *)
and jblock = {
  jb_ppc : int; (* physical address of the first instruction *)
  jb_bytes : int; (* total encoded length *)
  jb_gsum : int; (* summed granule generations over the text at compile *)
  jb_flush : int; (* icache_gen at compile *)
  jb_entry : t -> unit; (* head of the threaded-code chain *)
}

(* Empty-slot sentinel: no physical pc is negative, so its tag never
   matches.  [compile_block] returns it for "nothing compilable here",
   which keeps the dispatcher's lookup free of [option] boxes. *)
let no_block =
  { jb_ppc = -1; jb_bytes = 0; jb_gsum = 0; jb_flush = -1; jb_entry = ignore }

let icache_slots = 2048
let icache_mask = icache_slots - 1
let table_entries = 64
let jcache_slots = 1024
let jcache_mask = jcache_slots - 1

(* Longest run compiled into one block.  Long enough that hot loops and
   leaf functions compile whole; short enough that a block's generation
   probe at dispatch stays a handful of granule reads. *)
let jit_max_block = 64

let create ~mem ~bus ~engine ~costs ~load () =
  let mmu = Mmu.create costs in
  {
    mem;
    mem_size = Phys_mem.size mem;
    bus;
    engine;
    costs;
    load;
    mmu;
    tlb_penalty = Mmu.penalty mmu;
    regs = Array.make Isa.num_regs 0;
    pc = 0;
    z = false;
    n = false;
    c = false;
    tf = false;
    if_ = false;
    cpl = 0;
    iht = 0;
    ptb = 0;
    stacks = Array.make 4 0;
    io_bitmap = Bytes.make 8192 '\000';
    halted = false;
    stopped = false;
    pic_ack = (fun () -> None);
    pic_pending = (fun () -> false);
    hypervisor = None;
    retired = 0;
    retire_stop = None;
    irqs_taken = 0;
    faults = 0;
    sample_period = 0;
    next_sample = 0;
    sample_hook = (fun ~pc:_ ~cpl:_ -> ());
    fetch_buf = Bytes.make Isa.width '\000';
    icache =
      Array.init icache_slots (fun _ ->
          { itag = -1; igen = 0; iflush = 0; iop = ignore });
    icache_gen = 0;
    ic_hits = 0;
    ic_misses = 0;
    ic_inval = 0;
    jcache = Array.make jcache_slots no_block;
    jit_enabled = true;
    jit_cyc = 0;
    jit_ret = 0;
    jit_limit = 0;
    jit_vpn = 0;
    jit_pbase = 0;
    jit_off = 0;
    jb_compiled = 0;
    jb_hits = 0;
    jb_inval = 0;
    jb_chains = 0;
    jb_fallbacks = 0;
    io_in = false;
    io_reg = 0;
  }

let set_pic t ~ack ~pending =
  t.pic_ack <- ack;
  t.pic_pending <- pending

let set_hypervisor t hook = t.hypervisor <- hook
let has_hypervisor t = t.hypervisor <> None

(* -- Architectural state -- *)

let read_reg t r = t.regs.(r)
let write_reg t r v = t.regs.(r) <- Word.mask v
let pc t = t.pc
let set_pc t v = t.pc <- Word.mask v
let cpl t = t.cpl
let set_cpl t v = t.cpl <- v land 3

let flags_word t =
  (if t.z then 1 else 0)
  lor (if t.n then 2 else 0)
  lor (if t.c then 4 else 0)
  lor (if t.tf then 0x100 else 0)
  lor (if t.if_ then 0x200 else 0)
  lor (t.cpl lsl 12)

let set_flags_word t w =
  t.z <- w land 1 <> 0;
  t.n <- w land 2 <> 0;
  t.c <- w land 4 <> 0;
  t.tf <- w land 0x100 <> 0;
  t.if_ <- w land 0x200 <> 0;
  t.cpl <- (w lsr 12) land 3

let interrupts_enabled t = t.if_
let set_interrupts_enabled t v = t.if_ <- v
let trap_flag t = t.tf
let set_trap_flag t v = t.tf <- v
let iht_base t = t.iht
let set_iht_base t v = t.iht <- Word.mask v
let ptb t = t.ptb

let flush_tlb t =
  Mmu.flush t.mmu;
  (* O(1) whole-icache drop: entries filled under an older generation stop
     validating.  The monitor flushes on every shadow-table update, so this
     must not walk the array. *)
  t.icache_gen <- t.icache_gen + 1

let set_ptb t v =
  t.ptb <- Word.mask v;
  flush_tlb t

let ring_stack t ring = t.stacks.(ring land 3)
let set_ring_stack t ring v = t.stacks.(ring land 3) <- Word.mask v
let halted t = t.halted
let set_halted t v = t.halted <- v
let stopped t = t.stopped
let set_stopped t v = t.stopped <- v
let io_is_in t = t.io_in
let io_reg t = t.io_reg

(* -- I/O permission bitmap -- *)

let allow_port t port allowed =
  if port < 0 || port >= Io_bus.port_space then invalid_arg "Cpu.allow_port";
  let byte = Char.code (Bytes.get t.io_bitmap (port lsr 3)) in
  let bit = 1 lsl (port land 7) in
  let byte = if allowed then byte lor bit else byte land lnot bit in
  Bytes.set t.io_bitmap (port lsr 3) (Char.chr byte)

let port_allowed t port =
  port >= 0
  && port < Io_bus.port_space
  && Char.code (Bytes.get t.io_bitmap (port lsr 3)) land (1 lsl (port land 7)) <> 0

(* -- Cycle accounting -- *)

let charge t cycles =
  if cycles > 0 then begin
    Engine.advance t.engine cycles;
    Stats.note_busy t.load cycles
  end

(* -- Translated memory access -- *)

(* TLB-miss cycles the last translation left in the MMU's penalty cell,
   which is then empty again. *)
let[@inline] drain_penalty t =
  let p = !(t.tlb_penalty) in
  if p <> 0 then t.tlb_penalty := 0;
  p

let translate t ~access ~cpl vaddr =
  let paddr =
    Mmu.translate t.mmu t.mem ~ptb:t.ptb ~cpl access (Word.mask vaddr)
  in
  charge t (drain_penalty t);
  paddr

(* Multi-byte accesses that straddle a page fall back to byte-at-a-time so
   each byte is translated in its own page. *)
let load_u32 t ~cpl vaddr =
  let vaddr = Word.mask vaddr in
  if vaddr land 0xFFF <= Mmu.page_size - 4 then
    Phys_mem.read_u32 t.mem (translate t ~access:Mmu.Read ~cpl vaddr)
  else begin
    let b0 = Phys_mem.read_u8 t.mem (translate t ~access:Mmu.Read ~cpl vaddr) in
    let b1 =
      Phys_mem.read_u8 t.mem
        (translate t ~access:Mmu.Read ~cpl (Word.add vaddr 1))
    in
    let b2 =
      Phys_mem.read_u8 t.mem
        (translate t ~access:Mmu.Read ~cpl (Word.add vaddr 2))
    in
    let b3 =
      Phys_mem.read_u8 t.mem
        (translate t ~access:Mmu.Read ~cpl (Word.add vaddr 3))
    in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  end

let store_u32 t ~cpl vaddr v =
  let vaddr = Word.mask vaddr in
  if vaddr land 0xFFF <= Mmu.page_size - 4 then
    Phys_mem.write_u32 t.mem (translate t ~access:Mmu.Write ~cpl vaddr) v
  else
    for i = 0 to 3 do
      Phys_mem.write_u8 t.mem
        (translate t ~access:Mmu.Write ~cpl (Word.add vaddr i))
        ((v lsr (8 * i)) land 0xFF)
    done

(* -- Interrupt table -- *)

type gate = { handler : int; present : bool; ring : int; dpl : int }

let read_gate t ~table ~vector =
  if vector < 0 || vector >= table_entries then
    raise (Fault_exn (Gp (Bad_vector vector)));
  let base = Word.add table (8 * vector) in
  let handler = load_u32 t ~cpl:0 base in
  let info = load_u32 t ~cpl:0 (Word.add base 4) in
  {
    handler;
    present = info land 1 <> 0;
    ring = (info lsr 1) land 3;
    dpl = (info lsr 3) land 3;
  }

let push_frame t ~ring ~sp ~value =
  let sp = Word.sub sp 4 in
  store_u32 t ~cpl:ring sp value;
  sp

let deliver t ~table ~vector ~error ~return_pc =
  let gate = read_gate t ~table ~vector in
  if not gate.present then
    raise (Panic (Printf.sprintf "no handler for vector %d" vector));
  let old_sp = t.regs.(Isa.sp) in
  let old_flags = flags_word t in
  let ring = gate.ring in
  let sp0 = if ring < t.cpl then t.stacks.(ring) else old_sp in
  let sp1 = push_frame t ~ring ~sp:sp0 ~value:old_sp in
  let sp2 = push_frame t ~ring ~sp:sp1 ~value:old_flags in
  let sp3 = push_frame t ~ring ~sp:sp2 ~value:(Word.mask return_pc) in
  let sp4 = push_frame t ~ring ~sp:sp3 ~value:(Word.mask error) in
  t.regs.(Isa.sp) <- sp4;
  t.cpl <- ring;
  t.if_ <- false;
  t.tf <- false;
  t.pc <- gate.handler;
  charge t t.costs.interrupt_delivery

let do_iret t =
  let sp = t.regs.(Isa.sp) in
  let _error = load_u32 t ~cpl:0 sp in
  let return_pc = load_u32 t ~cpl:0 (Word.add sp 4) in
  let flags = load_u32 t ~cpl:0 (Word.add sp 8) in
  let old_sp = load_u32 t ~cpl:0 (Word.add sp 12) in
  set_flags_word t flags;
  t.regs.(Isa.sp) <- old_sp;
  t.pc <- return_pc;
  charge t t.costs.iret_cost

(* -- Fault dispatch -- *)

let vector_and_error = function
  | Page f -> (Isa.vec_page_fault, Word.mask f.Mmu.vaddr)
  | Gp (Io_denied port) -> (Isa.vec_protection, port)
  | Gp (Bad_int_gate v) -> (Isa.vec_protection, v)
  | Gp (Bad_vector v) -> (Isa.vec_protection, v)
  | Gp (Privileged_instruction _) | Gp Bad_iret | Gp (Bad_ring _) ->
    (Isa.vec_protection, 0)
  | Undefined opcode -> (Isa.vec_undefined, opcode)
  | Breakpoint_trap -> (Isa.vec_breakpoint, 0)
  | Step_trap -> (Isa.vec_debug_step, 0)
  | Machine_check addr -> (Isa.vec_machine_check, Word.mask addr)

(* Delivery through the CPU's own table, outside any op: a fault while
   pushing the frame has nowhere to go. *)
let hw_deliver t ~vector ~error ~return_pc =
  try deliver t ~table:t.iht ~vector ~error ~return_pc with
  | Fault_exn _ | Mmu.Page_fault _ | Phys_mem.Bus_error _ ->
    raise (Panic (Printf.sprintf "double fault delivering vector %d" vector))

let hw_deliver_fault t kind ~return_pc =
  let vector, error = vector_and_error kind in
  hw_deliver t ~vector ~error ~return_pc

let dispatch_fault t kind ~return_pc =
  t.faults <- t.faults + 1;
  match t.hypervisor with
  | Some hook ->
    (match hook t (Fault (kind, return_pc)) with
     | Handled -> ()
     | Deliver -> hw_deliver_fault t kind ~return_pc)
  | None -> hw_deliver_fault t kind ~return_pc

let poll_interrupts t =
  let bare_metal = match t.hypervisor with None -> true | Some _ -> false in
  if t.if_ && t.pic_pending () && not (t.stopped && bare_metal) then
    match t.pic_ack () with
    | None -> ()
    | Some vector ->
      t.halted <- false;
      t.irqs_taken <- t.irqs_taken + 1;
      (match t.hypervisor with
       | Some hook ->
         (match hook t (Irq vector) with
          | Handled -> ()
          | Deliver -> hw_deliver t ~vector ~error:0 ~return_pc:t.pc)
       | None -> hw_deliver t ~vector ~error:0 ~return_pc:t.pc)

let dispatch_soft t ~vector ~next_pc =
  match t.hypervisor with
  | Some hook ->
    (match hook t (Soft_int (vector, next_pc)) with
     | Handled -> ()
     | Deliver ->
       let gate = read_gate t ~table:t.iht ~vector in
       if (not gate.present) || gate.dpl < t.cpl then
         raise (Fault_exn (Gp (Bad_int_gate vector)))
       else deliver t ~table:t.iht ~vector ~error:0 ~return_pc:next_pc)
  | None ->
    let gate = read_gate t ~table:t.iht ~vector in
    if (not gate.present) || gate.dpl < t.cpl then
      raise (Fault_exn (Gp (Bad_int_gate vector)))
    else deliver t ~table:t.iht ~vector ~error:0 ~return_pc:next_pc

(* -- Port I/O -- *)

let check_port t port =
  if t.cpl <> 0 && not (port_allowed t port) then
    raise (Fault_exn (Gp (Io_denied port)))

let port_in t port =
  let port = port land 0xFFFF in
  check_port t port;
  charge t t.costs.port_io;
  Io_bus.read t.bus port

let port_out t port v =
  let port = port land 0xFFFF in
  check_port t port;
  charge t t.costs.port_io;
  Io_bus.write t.bus port v

(* -- Accumulated memory access --

   Every op charges into the running block's accumulator (invariant 1 of
   the translator below), so its translations do too: [jit_translate] is
   [translate] with the TLB-miss penalty landing in [jit_cyc] instead of
   the engine.  Callers pass already-masked addresses. *)

let jit_translate t ~access vaddr =
  let paddr = Mmu.translate t.mmu t.mem ~ptb:t.ptb ~cpl:t.cpl access vaddr in
  t.jit_cyc <- t.jit_cyc + drain_penalty t;
  paddr

let jit_load_u32 t vaddr =
  let vaddr = Word.mask vaddr in
  if vaddr land 0xFFF <= Mmu.page_size - 4 then
    Phys_mem.read_u32 t.mem (jit_translate t ~access:Mmu.Read vaddr)
  else begin
    let b0 = Phys_mem.read_u8 t.mem (jit_translate t ~access:Mmu.Read vaddr) in
    let b1 =
      Phys_mem.read_u8 t.mem (jit_translate t ~access:Mmu.Read (Word.add vaddr 1))
    in
    let b2 =
      Phys_mem.read_u8 t.mem (jit_translate t ~access:Mmu.Read (Word.add vaddr 2))
    in
    let b3 =
      Phys_mem.read_u8 t.mem (jit_translate t ~access:Mmu.Read (Word.add vaddr 3))
    in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  end

let jit_load_u8 t vaddr =
  Phys_mem.read_u8 t.mem (jit_translate t ~access:Mmu.Read (Word.mask vaddr))

(* Plain store, used by CALL (a transfer: no ops follow, so a store over
   its block's own text needs no special handling — the next dispatch
   revalidates). *)
let jit_store_u32 t vaddr v =
  let vaddr = Word.mask vaddr in
  if vaddr land 0xFFF <= Mmu.page_size - 4 then
    Phys_mem.write_u32 t.mem (jit_translate t ~access:Mmu.Write vaddr) v
  else
    for i = 0 to 3 do
      Phys_mem.write_u8 t.mem
        (jit_translate t ~access:Mmu.Write (Word.add vaddr i))
        ((v lsr (8 * i)) land 0xFF)
    done

(* Straight-line stores report whether they wrote over their block's own
   text (invariant 4): [true] means the chain must stop before the next
   op. *)
let jit_store_u32_chk t ~bppc ~bbytes vaddr v =
  let vaddr = Word.mask vaddr in
  if vaddr land 0xFFF <= Mmu.page_size - 4 then begin
    let p = jit_translate t ~access:Mmu.Write vaddr in
    Phys_mem.write_u32 t.mem p v;
    p + 4 > bppc && p < bppc + bbytes
  end
  else begin
    let hit = ref false in
    for i = 0 to 3 do
      let p = jit_translate t ~access:Mmu.Write (Word.add vaddr i) in
      Phys_mem.write_u8 t.mem p ((v lsr (8 * i)) land 0xFF);
      if p >= bppc && p < bppc + bbytes then hit := true
    done;
    !hit
  end

let jit_store_u8_chk t ~bppc ~bbytes vaddr v =
  let p = jit_translate t ~access:Mmu.Write (Word.mask vaddr) in
  Phys_mem.write_u8 t.mem p v;
  p >= bppc && p < bppc + bbytes

(* COPY and CSUM walk their ranges in page chunks, each translated in its
   own page.  The per-byte cost is charged up front and each chunk's TLB
   misses as it is translated, so a fault on a later page leaves the
   earlier chunks done and their cycles charged, and the restarted
   instruction pays again. *)

(* A forward copy, chunk after chunk; only within a chunk do overlapping
   ranges behave like memmove (docs/ISA.md). *)
let copy_block t ~dst ~src ~len =
  t.jit_cyc <-
    t.jit_cyc + Costs.cycles_for_bytes ~per_byte:t.costs.copy_per_byte len;
  let dst = ref (Word.mask dst) and src = ref (Word.mask src) in
  let left = ref len in
  while !left > 0 do
    let src_room = Mmu.page_size - (!src land 0xFFF) in
    let dst_room = Mmu.page_size - (!dst land 0xFFF) in
    let chunk = min !left (min src_room dst_room) in
    let psrc = jit_translate t ~access:Mmu.Read !src in
    let pdst = jit_translate t ~access:Mmu.Write !dst in
    Phys_mem.blit t.mem ~src:psrc ~dst:pdst ~len:chunk;
    dst := Word.add !dst chunk;
    src := Word.add !src chunk;
    left := !left - chunk
  done

let checksum_block t ~addr ~len =
  t.jit_cyc <-
    t.jit_cyc + Costs.cycles_for_bytes ~per_byte:t.costs.csum_per_byte len;
  (* Internet checksum with little-endian 16-bit pairing, accumulated chunk
     by chunk so page boundaries keep global byte parity. *)
  let addr = ref (Word.mask addr) and sum = ref 0 and index = ref 0 in
  while !index < len do
    let chunk = min (len - !index) (Mmu.page_size - (!addr land 0xFFF)) in
    let paddr = jit_translate t ~access:Mmu.Read !addr in
    sum := Phys_mem.checksum_add t.mem ~addr:paddr ~len:chunk ~index:!index !sum;
    index := !index + chunk;
    addr := Word.add !addr chunk
  done;
  let s = ref !sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  lnot !s land 0xFFFF

(* -- Execution --

   Every instruction executes as a compiled op: an OCaml closure built
   once per decoded instruction by [compile], the single statement of
   each instruction's semantics.  The interpreter ([step]) runs one op
   from the decoded-instruction cache as a one-instruction block; the
   basic-block threaded-code translator ([jit_run]) chains the ops of
   straight-line runs.

   [jit_run] replaces [step] inside the batched dispatch loop whenever no
   per-instruction observer is armed (no trap flag, no retire stop, no
   deliverable interrupt).  It compiles straight-line decoded runs into
   chains of closures keyed by physical pc and executes them, chaining
   across taken jumps/calls/returns while the cycle budget holds.

   Bit-identity with per-instruction stepping rests on four invariants:

   1. Frozen clock.  While a chain runs, nothing reads the engine clock:
      every charge lands in the unboxed [jit_cyc] accumulator, so true
      time is always [now-at-entry + jit_cyc], and the per-op budget
      guard [jit_cyc < jit_limit] is exactly the unbatched loop's
      [now < min horizon next_sample] test.  The accumulator (and the
      retirement accumulator [jit_ret]) is flushed before anything that
      could observe the clock or counters runs: an op that reaches a
      device, ring, the clock or the monitor, a fault hook, or returning
      to [run_batch].  Chains therefore stop on the same instruction
      boundary where the unbatched loop would have stopped for the
      horizon, a profiler sample, or an event.

   2. Poll elision.  Chained ops cannot change IF, HALT, the PIC, or
      schedule events — STI/CLI/HLT/OUT/VMCALL and friends never enter a
      chain ([jit_compiles_mid]) — so if no interrupt was deliverable
      when the chain started (the dispatcher checks), none can become
      deliverable mid-chain, and the skipped per-instruction polls were
      all no-ops.

   3. Fetch elision.  Instruction 1's fetch-translate runs for real at
      dispatch (charging a TLB miss and setting accessed bits exactly
      like the interpreter's fetch), except on a chain follow that stays
      on a code page still in the TLB, where it would be a plain hit.
      Later ops skip it, which is only
      visible if a data access evicts the code page's direct-mapped TLB
      entry — the next fetch would walk again, charging cycles and
      writing accessed bits.  Memory ops therefore guard on
      [Mmu.tlb_covers] for the code page and bail to the dispatcher when
      it fails (with paging off there is nothing to evict).  A load or
      store touches at most two consecutive pages, which never share a
      slot, so it cannot evict the code page's entry and refill it too;
      a COPY or CSUM can, so after one that walked the tables the chain
      stops and the dispatcher fetches anew.  The only tolerated
      divergence is the MMU's internal hit counter, which no
      guest-visible path reads.

   4. Text stability.  A block is (re)validated at every dispatch against
      the granule write generations of its whole text plus the flush
      stamp.  Mid-chain, the only writers are the compiled stores and
      COPYs themselves: a store checks the physical range it wrote
      against the block's text, a COPY the text's generation sum, and
      either stops the chain short when the text was written, so the
      remaining stale ops never run —
      the dispatcher revalidates, recompiles from the fresh bytes and
      continues.  DMA and host writes cannot happen mid-chain because no
      events dispatch mid-chain.

   pc is not advanced op by op: it stays on the block's first
   instruction while the chain runs, and an op writes it (first
   instruction plus the byte offset it was compiled at) only when control
   leaves the block — a transfer, a budget or guard stop, or the block's
   end.  Nothing reads pc mid-chain, so this is invisible.

   Faults propagate out of an op as exceptions.  An op that can fault
   first records its offset in [jit_off]; the handler restores pc to the
   faulting instruction from it, flushes the accumulators and dispatches
   with [return_pc = pc], then returns to [run_batch] — hooks may halt,
   stop, schedule or retarget the CPU, all of which the batch loop
   re-checks. *)

let set_zn t v =
  t.z <- v = 0;
  t.n <- v land 0x80000000 <> 0

let jit_flush t =
  charge t t.jit_cyc;
  t.jit_cyc <- 0;
  t.retired <- t.retired + t.jit_ret;
  t.jit_ret <- 0

(* Block terminator at byte offset [off] (a page end, the length cap, an
   instruction that cannot chain): move pc there and let the dispatcher
   take over. *)
let jit_block_end ~off t = t.pc <- Word.add t.pc off

(* The instructions a chain may run through: the straight-line ops that
   touch only registers, flags and memory.  COPY and CSUM are memory ops
   like ST and LD, only longer.  The excluded fallthrough instructions
   (I/O, privileged control, RDTSC, VMCALL, INT, HLT) end the block and
   run in the interpreter: they reach devices, rings, the clock or the
   monitor — exactly where the unbatched loop's per-instruction
   bookkeeping is observable. *)
let jit_compiles_mid = function
  | Isa.Nop | Isa.Movi _ | Isa.Mov _ | Isa.Add _ | Isa.Addi _ | Isa.Sub _
  | Isa.And_ _ | Isa.Or_ _ | Isa.Xor_ _ | Isa.Shl _ | Isa.Shr _ | Isa.Mul _
  | Isa.Cmp _ | Isa.Cmpi _ | Isa.Ld _ | Isa.St _ | Isa.Ldb _ | Isa.Stb _
  | Isa.Push _ | Isa.Pop _ | Isa.Copy _ | Isa.Csum _ ->
    true
  | _ -> false

(* Tail of every straight-line op: retire it, then run the next op while
   the cycle budget holds; otherwise put pc on the following instruction
   (byte offset [nxt] in the block) and return to the dispatcher. *)
let[@inline] jit_continue t ~next ~nxt =
  t.jit_ret <- t.jit_ret + 1;
  if t.jit_cyc < t.jit_limit then next t else t.pc <- Word.add t.pc nxt

(* Memory ops also stop when their store wrote the block's own text
   (invariant 4) or their access evicted the code page's TLB entry
   (invariant 3). *)
let[@inline] jit_continue_mem t ~next ~nxt ~hit =
  t.jit_ret <- t.jit_ret + 1;
  if
    (not hit)
    && t.jit_cyc < t.jit_limit
    && (t.ptb = 0 || Mmu.tlb_covers t.mmu ~vpn:t.jit_vpn)
  then next t
  else t.pc <- Word.add t.pc nxt

(* COPY and CSUM walk page after page, so one op can evict the code
   page's TLB entry and walk it back in — from a PTE the guest may have
   edited since — which [tlb_covers] cannot tell from an entry that never
   left.  After such an op walked the tables, stop the chain and forget
   the code page's frame, so the dispatcher's next fetch goes through the
   TLB as the interpreter's does.  A COPY also stops when its writes bumped
   a granule generation of the block's own text (invariant 4). *)
let[@inline] jit_continue_walk t ~next ~nxt ~misses ~hit =
  if Mmu.miss_count t.mmu = misses then jit_continue_mem t ~next ~nxt ~hit
  else begin
    t.jit_ret <- t.jit_ret + 1;
    t.jit_vpn <- -1;
    t.pc <- Word.add t.pc nxt
  end

(* Entry of an op that can observe time, counters or the monitor: its
   base cost joins the accumulator, which is then flushed, so whatever
   the op reaches sees exact time and retirements (invariant 1). *)
let[@inline] jit_sync t ~cyc =
  t.jit_cyc <- t.jit_cyc + cyc;
  jit_flush t

(* Exit of such an op when it falls through: pc on the next instruction,
   retirement counted. *)
let[@inline] jit_leave t ~nxt =
  t.pc <- Word.add t.pc nxt;
  t.jit_ret <- t.jit_ret + 1

(* A privileged control op: outside ring 0 it raises the protection
   fault (built once, when the op is compiled); in ring 0 [f] acts and
   the op falls through. *)
let ring0_op instr ~cyc ~nxt f =
  let fault = Fault_exn (Gp (Privileged_instruction instr)) in
  fun t ->
    jit_sync t ~cyc;
    if t.cpl <> 0 then raise fault;
    f t;
    jit_leave t ~nxt

(* [compile cpu instr ~off ~bppc ~bbytes ~next] is the op for [instr] at
   byte offset [off] of a block whose text is [bbytes] bytes at physical
   [bppc]; [next] is the op of the instruction that follows.  Each op
   charges its base cost into the accumulator, does its work, counts its
   retirement and leaves pc on the instruction to continue at.  pc stays
   on the block's first instruction while a chain runs and is written
   only when control leaves it; an op that can fault first records its
   offset in [jit_off], from which the fault handler restores pc.

   There are three shapes of op:
   - straight-line ops (the [jit_compiles_mid] set) update state in the
     architectural order (flags after the result write) and tail-call
     [next] while the cycle budget holds;
   - transfers end the block on their destination and ignore [next];
   - the rest reach devices, rings, the clock or the monitor.  They
     flush the accumulators first ([jit_sync]), then act and end the
     block.  They never enter a chain (invariant 2), so they run only as
     one-instruction blocks, at offset 0, with pc on their own
     instruction. *)
let compile cpu instr ~off ~bppc ~bbytes ~(next : t -> unit) : t -> unit =
  let nxt = off + Isa.width in
  let cyc = Isa.base_cycles cpu.costs instr in
  match instr with
  | Isa.Nop ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      jit_continue t ~next ~nxt
  | Isa.Movi (rd, imm) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.regs.(rd) <- imm;
      jit_continue t ~next ~nxt
  | Isa.Mov (rd, rs) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.regs.(rd) <- t.regs.(rs);
      jit_continue t ~next ~nxt
  | Isa.Add (rd, a, b) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      let r = t.regs in
      r.(rd) <- Word.add r.(a) r.(b);
      set_zn t r.(rd);
      jit_continue t ~next ~nxt
  | Isa.Addi (rd, a, imm) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      let r = t.regs in
      r.(rd) <- Word.add r.(a) imm;
      set_zn t r.(rd);
      jit_continue t ~next ~nxt
  | Isa.Sub (rd, a, b) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      let r = t.regs in
      r.(rd) <- Word.sub r.(a) r.(b);
      set_zn t r.(rd);
      jit_continue t ~next ~nxt
  | Isa.And_ (rd, a, b) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      let r = t.regs in
      r.(rd) <- Word.logand r.(a) r.(b);
      set_zn t r.(rd);
      jit_continue t ~next ~nxt
  | Isa.Or_ (rd, a, b) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      let r = t.regs in
      r.(rd) <- Word.logor r.(a) r.(b);
      set_zn t r.(rd);
      jit_continue t ~next ~nxt
  | Isa.Xor_ (rd, a, b) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      let r = t.regs in
      r.(rd) <- Word.logxor r.(a) r.(b);
      set_zn t r.(rd);
      jit_continue t ~next ~nxt
  | Isa.Shl (rd, a, b) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      let r = t.regs in
      r.(rd) <- Word.shift_left r.(a) r.(b);
      set_zn t r.(rd);
      jit_continue t ~next ~nxt
  | Isa.Shr (rd, a, b) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      let r = t.regs in
      r.(rd) <- Word.shift_right r.(a) r.(b);
      set_zn t r.(rd);
      jit_continue t ~next ~nxt
  | Isa.Mul (rd, a, b) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      let r = t.regs in
      r.(rd) <- Word.mul r.(a) r.(b);
      set_zn t r.(rd);
      jit_continue t ~next ~nxt
  | Isa.Cmp (a, b) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      let r = t.regs in
      t.z <- Word.equal r.(a) r.(b);
      t.n <- Word.signed_lt r.(a) r.(b);
      t.c <- Word.unsigned_lt r.(a) r.(b);
      jit_continue t ~next ~nxt
  | Isa.Cmpi (a, imm) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      let r = t.regs in
      t.z <- Word.equal r.(a) imm;
      t.n <- Word.signed_lt r.(a) imm;
      t.c <- Word.unsigned_lt r.(a) imm;
      jit_continue t ~next ~nxt
  | Isa.Ld (rd, base, imm) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.jit_off <- off;
      let r = t.regs in
      r.(rd) <- jit_load_u32 t (Word.add r.(base) imm);
      jit_continue_mem t ~next ~nxt ~hit:false
  | Isa.St (base, imm, src) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.jit_off <- off;
      let r = t.regs in
      let hit = jit_store_u32_chk t ~bppc ~bbytes (Word.add r.(base) imm) r.(src) in
      jit_continue_mem t ~next ~nxt ~hit
  | Isa.Ldb (rd, base, imm) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.jit_off <- off;
      let r = t.regs in
      r.(rd) <- jit_load_u8 t (Word.add r.(base) imm);
      jit_continue_mem t ~next ~nxt ~hit:false
  | Isa.Stb (base, imm, src) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.jit_off <- off;
      let r = t.regs in
      let hit =
        jit_store_u8_chk t ~bppc ~bbytes (Word.add r.(base) imm)
          (r.(src) land 0xFF)
      in
      jit_continue_mem t ~next ~nxt ~hit
  | Isa.Push rs ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.jit_off <- off;
      let r = t.regs in
      let sp = Word.sub r.(Isa.sp) 4 in
      let hit = jit_store_u32_chk t ~bppc ~bbytes sp r.(rs) in
      r.(Isa.sp) <- sp;
      jit_continue_mem t ~next ~nxt ~hit
  | Isa.Pop rd ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.jit_off <- off;
      let r = t.regs in
      let sp = r.(Isa.sp) in
      let v = jit_load_u32 t sp in
      r.(Isa.sp) <- Word.add sp 4;
      r.(rd) <- v;
      jit_continue_mem t ~next ~nxt ~hit:false
  | Isa.Copy (d, s, n) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.jit_off <- off;
      let r = t.regs in
      let gsum = Phys_mem.generation_sum t.mem ~addr:bppc ~len:bbytes in
      let misses = Mmu.miss_count t.mmu in
      copy_block t ~dst:r.(d) ~src:r.(s) ~len:r.(n);
      jit_continue_walk t ~next ~nxt ~misses
        ~hit:(Phys_mem.generation_sum t.mem ~addr:bppc ~len:bbytes <> gsum)
  | Isa.Csum (rd, a, n) ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.jit_off <- off;
      let r = t.regs in
      let misses = Mmu.miss_count t.mmu in
      r.(rd) <- checksum_block t ~addr:r.(a) ~len:r.(n);
      jit_continue_walk t ~next ~nxt ~misses ~hit:false
  | Isa.Jmp target ->
    let tgt = Word.mask target in
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.pc <- tgt;
      t.jit_ret <- t.jit_ret + 1
  | Isa.Jz target ->
    let tgt = Word.mask target in
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.pc <- (if t.z then tgt else Word.add t.pc nxt);
      t.jit_ret <- t.jit_ret + 1
  | Isa.Jnz target ->
    let tgt = Word.mask target in
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.pc <- (if not t.z then tgt else Word.add t.pc nxt);
      t.jit_ret <- t.jit_ret + 1
  | Isa.Jlt target ->
    let tgt = Word.mask target in
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.pc <- (if t.n then tgt else Word.add t.pc nxt);
      t.jit_ret <- t.jit_ret + 1
  | Isa.Jge target ->
    let tgt = Word.mask target in
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.pc <- (if not t.n then tgt else Word.add t.pc nxt);
      t.jit_ret <- t.jit_ret + 1
  | Isa.Jb target ->
    let tgt = Word.mask target in
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.pc <- (if t.c then tgt else Word.add t.pc nxt);
      t.jit_ret <- t.jit_ret + 1
  | Isa.Jae target ->
    let tgt = Word.mask target in
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.pc <- (if not t.c then tgt else Word.add t.pc nxt);
      t.jit_ret <- t.jit_ret + 1
  | Isa.Jr rs ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.pc <- Word.mask t.regs.(rs);
      t.jit_ret <- t.jit_ret + 1
  | Isa.Call target ->
    let tgt = Word.mask target in
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.jit_off <- off;
      let r = t.regs in
      let ret = Word.add t.pc nxt in
      let sp = Word.sub r.(Isa.sp) 4 in
      jit_store_u32 t sp ret;
      r.(Isa.sp) <- sp;
      t.pc <- tgt;
      t.jit_ret <- t.jit_ret + 1
  | Isa.Ret ->
    fun t ->
      t.jit_cyc <- t.jit_cyc + cyc;
      t.jit_off <- off;
      let r = t.regs in
      let sp = r.(Isa.sp) in
      let tgt = jit_load_u32 t sp in
      r.(Isa.sp) <- Word.add sp 4;
      t.pc <- Word.mask tgt;
      t.jit_ret <- t.jit_ret + 1
  (* Port I/O records its direction and register before the port check,
     so a monitor emulating the trapped access reads its operand from the
     CPU instead of decoding the instruction again. *)
  | Isa.In_ (rd, rs) ->
    fun t ->
      jit_sync t ~cyc;
      t.io_in <- true;
      t.io_reg <- rd;
      t.regs.(rd) <- Word.mask (port_in t t.regs.(rs));
      jit_leave t ~nxt
  | Isa.Ini (rd, imm) ->
    fun t ->
      jit_sync t ~cyc;
      t.io_in <- true;
      t.io_reg <- rd;
      t.regs.(rd) <- Word.mask (port_in t imm);
      jit_leave t ~nxt
  | Isa.Out (p, v) ->
    fun t ->
      jit_sync t ~cyc;
      t.io_in <- false;
      t.io_reg <- v;
      port_out t t.regs.(p) t.regs.(v);
      jit_leave t ~nxt
  | Isa.Outi (imm, v) ->
    fun t ->
      jit_sync t ~cyc;
      t.io_in <- false;
      t.io_reg <- v;
      port_out t imm t.regs.(v);
      jit_leave t ~nxt
  | Isa.Int_ vector ->
    fun t ->
      jit_sync t ~cyc;
      dispatch_soft t ~vector ~next_pc:(Word.add t.pc nxt);
      t.jit_ret <- t.jit_ret + 1
  | Isa.Iret ->
    let fault = Fault_exn (Gp (Privileged_instruction instr)) in
    fun t ->
      jit_sync t ~cyc;
      if t.cpl <> 0 then raise fault;
      do_iret t;
      t.jit_ret <- t.jit_ret + 1
  | Isa.Hlt -> ring0_op instr ~cyc ~nxt (fun t -> t.halted <- true)
  | Isa.Sti -> ring0_op instr ~cyc ~nxt (fun t -> t.if_ <- true)
  | Isa.Cli -> ring0_op instr ~cyc ~nxt (fun t -> t.if_ <- false)
  | Isa.Liht rs -> ring0_op instr ~cyc ~nxt (fun t -> t.iht <- t.regs.(rs))
  | Isa.Lptb rs -> ring0_op instr ~cyc ~nxt (fun t -> set_ptb t t.regs.(rs))
  | Isa.Lstk (ring, rs) ->
    ring0_op instr ~cyc ~nxt (fun t -> t.stacks.(ring land 3) <- t.regs.(rs))
  | Isa.Tlbflush -> ring0_op instr ~cyc ~nxt flush_tlb
  | Isa.Rdtsc rd ->
    fun t ->
      jit_sync t ~cyc;
      t.regs.(rd) <- Word.mask (Engine.now_int t.engine);
      jit_leave t ~nxt
  | Isa.Vmcall imm ->
    fun t ->
      jit_sync t ~cyc;
      (match t.hypervisor with
       | Some hook ->
         let next_pc = Word.add t.pc nxt in
         t.pc <- next_pc;
         ignore (hook t (Hypercall (imm, next_pc)))
       | None -> raise (Fault_exn (Undefined 0x2E)));
      t.jit_ret <- t.jit_ret + 1
  | Isa.Brk ->
    fun t ->
      jit_sync t ~cyc;
      raise (Fault_exn Breakpoint_trap)

(* -- Fetch -- *)

(* The continuation of an interpreted op: a one-instruction block ends on
   the next instruction. *)
let step_end = jit_block_end ~off:Isa.width

let compile_step t instr ~paddr =
  compile t instr ~off:0 ~bppc:paddr ~bbytes:Isa.width ~next:step_end

let fetch_cached t paddr =
  let slot = Array.unsafe_get t.icache ((paddr lsr 3) land icache_mask) in
  let pgen =
    Phys_mem.generation t.mem paddr
    + Phys_mem.generation t.mem (paddr + (Isa.width - 1))
  in
  if slot.itag = paddr && slot.iflush = t.icache_gen && slot.igen = pgen
  then begin
    t.ic_hits <- t.ic_hits + 1;
    slot.iop
  end
  else begin
    if slot.itag = paddr then t.ic_inval <- t.ic_inval + 1;
    t.ic_misses <- t.ic_misses + 1;
    let op = compile_step t (Isa.read t.mem paddr) ~paddr in
    slot.itag <- paddr;
    slot.igen <- pgen;
    slot.iflush <- t.icache_gen;
    slot.iop <- op;
    op
  end

(* The op at pc, through the decoded-instruction cache when the
   instruction lies in one page of RAM. *)
let fetch t =
  let pc = t.pc in
  if pc land 0xFFF <= Mmu.page_size - Isa.width then begin
    let paddr = translate t ~access:Mmu.Exec ~cpl:t.cpl pc in
    if paddr >= 0 && paddr + Isa.width <= t.mem_size then
      fetch_cached t paddr
    else
      (* Translation does not bound physical addresses (identity map when
         paging is off, PTE frames above RAM), and the generation probe in
         [fetch_cached] is unchecked — take the checked read, which raises
         Bus_error and becomes a guest machine check. *)
      compile_step t (Isa.read t.mem paddr) ~paddr
  end
  else begin
    for i = 0 to Isa.width - 1 do
      let paddr = translate t ~access:Mmu.Exec ~cpl:t.cpl (Word.add pc i) in
      Bytes.set t.fetch_buf i (Char.chr (Phys_mem.read_u8 t.mem paddr))
    done;
    (* Split across two frames, so not cached.  The empty text range
       only tells stores and COPY they never hit the op's own text,
       which a one-instruction block does not need to know. *)
    compile t (Isa.decode ~addr:pc t.fetch_buf ~off:0) ~off:0 ~bppc:0 ~bbytes:0
      ~next:step_end
  end

(* An exception left an op: the guest faults become hook or table
   deliveries at [return_pc]; anything else (a panic) propagates. *)
let dispatch_exn t e ~return_pc =
  match e with
  | Fault_exn kind -> dispatch_fault t kind ~return_pc
  | Mmu.Page_fault f -> dispatch_fault t (Page f) ~return_pc
  | Phys_mem.Bus_error addr -> dispatch_fault t (Machine_check addr) ~return_pc
  | Isa.Decode_error { opcode; _ } -> dispatch_fault t (Undefined opcode) ~return_pc
  | e -> raise e

(* The interpreter: one op as a one-instruction block, then the
   per-instruction observers the translator never runs under — the
   retire stop and the trap flag.  The op was compiled at offset 0, so
   a fault leaves pc on the instruction: unwinding only flushes the
   accumulators, and the fault dispatches with [return_pc] on the
   instruction itself. *)
let step t =
  let start_pc = t.pc in
  let tf0 = t.tf in
  try
    (fetch t) t;
    jit_flush t;
    (match t.retire_stop with
     | Some (target, on_stop) when t.retired >= target ->
       (* Landed on the requested instruction boundary: freeze with pc at
          the next instruction to execute, exactly like a debugger stop. *)
       t.retire_stop <- None;
       t.stopped <- true;
       on_stop t
     | _ -> ());
    if tf0 && t.tf then begin
      (* Trap after the stepped instruction; handlers run with TF clear. *)
      t.faults <- t.faults + 1;
      match t.hypervisor with
      | Some hook ->
        (match hook t (Fault (Step_trap, t.pc)) with
         | Handled -> ()
         | Deliver -> hw_deliver_fault t Step_trap ~return_pc:t.pc)
      | None -> hw_deliver_fault t Step_trap ~return_pc:t.pc
    end
  with e ->
    jit_flush t;
    dispatch_exn t e ~return_pc:start_pc

(* Whether the instruction at [ppc] can head a block: a straight-line op
   that chains or a transfer.  Interpreter-only heads ([OUT], [STI],
   [IRET], [HLT], ...) and undecodable slots are met on every trap-heavy
   dispatch, so they are refused here, before [compile_block] allocates
   its decode buffer. *)
let jit_heads_block t ~ppc =
  match Isa.read t.mem ppc with
  | exception Isa.Decode_error _ -> false
  | i ->
    (match Isa.flow_of i with
     | Isa.Fallthrough -> jit_compiles_mid i
     | Isa.Jump _ | Isa.Branch _ | Isa.Call_to _ | Isa.Indirect | Isa.Return ->
       true
     | Isa.Int_return | Isa.Terminal -> false)

(* Compile the run starting at [vpc] (physically at [ppc], both inside
   one page — blocks never cross a page boundary, so virtual and
   physical offsets advance in lockstep).  The run is straight-line ops
   optionally ended by one transfer; it stops at the page end, the
   length cap, an instruction that cannot chain or an undecodable slot.
   Ops are chained back to front; pc updates inside ops are pc-relative
   (or absolute targets from the encoding), so a block is reusable
   across virtual mappings of the same physical text — which is exactly
   what physical keying promises. *)
let compile_block t ~vpc ~ppc : jblock =
  if not (jit_heads_block t ~ppc) then no_block
  else begin
    let w = Isa.width in
    let vroom = (Mmu.page_size - (vpc land (Mmu.page_size - 1))) / w in
    let proom = (t.mem_size - ppc) / w in
    let room = min jit_max_block (min vroom proom) in
    let run = Array.make (max room 1) Isa.Nop in
    let n = ref 0 in
    let stop = ref false in
    while (not !stop) && !n < room do
      match Isa.read t.mem (ppc + (!n * w)) with
      | exception Isa.Decode_error _ -> stop := true
      | i ->
        (match Isa.flow_of i with
         | Isa.Fallthrough ->
           if jit_compiles_mid i then begin
             run.(!n) <- i;
             incr n
           end
           else stop := true
         | Isa.Jump _ | Isa.Branch _ | Isa.Call_to _ | Isa.Indirect
         | Isa.Return ->
           run.(!n) <- i;
           incr n;
           stop := true
         | Isa.Int_return | Isa.Terminal -> stop := true)
    done;
    let n = !n in
    if n = 0 then no_block
    else begin
      let bytes = n * w in
      let entry = ref (jit_block_end ~off:bytes) in
      for k = n - 1 downto 0 do
        entry := compile t run.(k) ~off:(k * w) ~bppc:ppc ~bbytes:bytes ~next:!entry
      done;
      t.jb_compiled <- t.jb_compiled + 1;
      {
        jb_ppc = ppc;
        jb_bytes = bytes;
        jb_gsum = Phys_mem.generation_sum t.mem ~addr:ppc ~len:bytes;
        jb_flush = t.icache_gen;
        jb_entry = !entry;
      }
    end
  end

(* Direct-mapped lookup with full revalidation (invariant 4): stamp and
   generation sum must both match, else recompile from current bytes.
   Returns [no_block] when nothing at [ppc] compiles. *)
let jit_block_at t ~ppc =
  let slot = (ppc lsr 3) land jcache_mask in
  let b = Array.unsafe_get t.jcache slot in
  if b.jb_ppc = ppc then
    if
      b.jb_flush = t.icache_gen
      && Phys_mem.generation_sum t.mem ~addr:ppc ~len:b.jb_bytes = b.jb_gsum
    then begin
      t.jb_hits <- t.jb_hits + 1;
      b
    end
    else begin
      t.jb_inval <- t.jb_inval + 1;
      let nb = compile_block t ~vpc:t.pc ~ppc in
      t.jcache.(slot) <- nb;
      nb
    end
  else begin
    let nb = compile_block t ~vpc:t.pc ~ppc in
    if nb != no_block then t.jcache.(slot) <- nb;
    nb
  end

(* An exception left a chain: put pc back on the instruction that raised
   it (the block's first instruction plus [jit_off]) and flush the
   accumulators, so the fault is dispatched exactly as [step] would. *)
let jit_unwind t =
  t.pc <- Word.add t.pc t.jit_off;
  t.jit_off <- 0;
  jit_flush t

(* Dispatch loop of the block translator: execute compiled blocks from
   the cache, chaining across taken transfers while the cycle budget
   [limit] holds, and falling back to one interpreter [step] whenever the
   pc cannot head a block (straddling fetch, out-of-RAM text,
   interpreter-only instruction).  At least one instruction
   always retires.  See the invariant comment at the translator above
   for why this is bit-identical to stepping. *)
let jit_run t ~limit =
  t.jit_cyc <- 0;
  t.jit_ret <- 0;
  t.jit_limit <- max 0 (limit - Engine.now_int t.engine);
  let chained = ref false in
  (try
     let continue = ref true in
     while !continue do
       t.jit_off <- 0;
       let pc = t.pc in
       if pc land 0xFFF > Mmu.page_size - Isa.width then begin
         (* Page-straddling fetch: the interpreter's byte-wise path. *)
         jit_flush t;
         t.jb_fallbacks <- t.jb_fallbacks + 1;
         step t;
         continue := false
       end
       else begin
         (* Instruction 1's fetch-translate, for real: charges a miss
            into the accumulator and sets accessed bits exactly like the
            interpreter's fetch would.  A chain follow that stays on the
            code page of the block just run, with that page still in the
            TLB, would hit the same entry — no charge, no bit store — so
            it reuses the page's frame (the fetch elision of invariant
            3, applied across the transfer). *)
         let ppc =
           if
             !chained
             && pc lsr 12 = t.jit_vpn
             && (t.ptb = 0 || Mmu.tlb_covers t.mmu ~vpn:t.jit_vpn)
           then t.jit_pbase lor (pc land 0xFFF)
           else jit_translate t ~access:Mmu.Exec pc
         in
         if ppc < 0 || ppc + Isa.width > t.mem_size then begin
           (* Out-of-RAM text: [step]'s checked read raises Bus_error and
              becomes a machine check.  Its own translate is a TLB hit
              after the walk above, so nothing double-charges. *)
           jit_flush t;
           t.jb_fallbacks <- t.jb_fallbacks + 1;
           step t;
           continue := false
         end
         else
           let b = jit_block_at t ~ppc in
           if b == no_block then begin
             (* Interpreter-only instruction at pc; as above, [step]
                refetches through the now-warm TLB. *)
             jit_flush t;
             t.jb_fallbacks <- t.jb_fallbacks + 1;
             step t;
             continue := false
           end
           else begin
             if !chained then t.jb_chains <- t.jb_chains + 1;
             chained := true;
             t.jit_vpn <- pc lsr 12;
             t.jit_pbase <- ppc land lnot 0xFFF;
             b.jb_entry t;
             if t.jit_cyc >= t.jit_limit then continue := false
           end
       end
     done
   with e ->
     jit_unwind t;
     dispatch_exn t e ~return_pc:t.pc);
  jit_flush t

(* Tight stepping loop between event horizons.  The caller has already
   dispatched due events and polled once, so the first action is a step;
   the loop preserves the canonical dispatch/poll/step interleaving by
   construction: while the clock stays short of [horizon] and nothing new
   is scheduled ([wake] unchanged), a dispatch would be a no-op, so
   step/poll pairs are exactly what the unbatched loop would execute.  Any
   exit condition returns control to the dispatcher *between* a step and
   the next poll — the same point where the unbatched loop runs its
   dispatch — so cycle accounting, trap ordering and IRQ delivery points
   are bit-identical.

   When the block translator is on and no per-instruction observer is
   armed — no trap flag, no retire stop, no deliverable interrupt — the
   step is replaced by [jit_run], bounded by the nearer of the horizon
   and the next profiler sample so chains stop on exactly the boundary
   the unbatched loop would have stopped on. *)
let run_batch_int t ~horizon ~wake =
  let engine = t.engine in
  let continue = ref true in
  while !continue do
    if
      t.jit_enabled
      && (not t.tf)
      && (match t.retire_stop with None -> true | Some _ -> false)
      && not (t.if_ && t.pic_pending ())
    then begin
      let limit =
        if t.sample_period > 0 && t.next_sample < horizon then t.next_sample
        else horizon
      in
      jit_run t ~limit
    end
    else step t;
    (* Continuous pc sampling: a pure read of (pc, cpl) handed to the
       profiler between instructions.  It never advances the clock or
       schedules events, so enabling it cannot perturb guest-visible
       behaviour — replay bit-equality holds with profiling on. *)
    if t.sample_period > 0 && Engine.now_int engine >= t.next_sample then begin
      t.sample_hook ~pc:t.pc ~cpl:t.cpl;
      t.next_sample <- Engine.now_int engine + t.sample_period
    end;
    if
      t.halted || t.stopped
      || Engine.now_int engine >= horizon
      || Engine.wake_generation engine <> wake
    then continue := false
    else begin
      poll_interrupts t;
      (* A hook running off the poll may halt or stop the CPU; the
         unbatched loop would idle-skip here, so hand back. *)
      if t.halted || t.stopped then continue := false
    end
  done

let run_batch t ~horizon ~wake =
  run_batch_int t ~horizon:(Engine.horizon_of_time horizon) ~wake

(* -- Introspection -- *)

let set_sampling t ~period ~hook =
  if Int64.compare period 0L < 0 then
    invalid_arg "Cpu.set_sampling: negative period";
  let period = Engine.cycles_of_time "Cpu.set_sampling" period in
  t.sample_period <- period;
  t.sample_hook <- hook;
  t.next_sample <- (if period > 0 then Engine.now_int t.engine + period else 0)

let sampling_period t = Int64.of_int t.sample_period

let icache_hits t = t.ic_hits
let icache_misses t = t.ic_misses
let icache_invalidations t = t.ic_inval

(* -- Block-translator control and telemetry -- *)

let jit_enabled t = t.jit_enabled
let set_jit_enabled t v = t.jit_enabled <- v

let blocks_compiled t = t.jb_compiled
let block_hits t = t.jb_hits
let block_invalidations t = t.jb_inval
let block_chain_follows t = t.jb_chains
let block_fallbacks t = t.jb_fallbacks
let instructions_retired t = Int64.of_int t.retired

(* Reverse-debug support: checkpoint restore rewinds the retirement
   counter; replay-to-N arms a stop at an absolute retirement count. *)
let set_instructions_retired t v =
  t.retired <- Engine.cycles_of_time "Cpu.set_instructions_retired" v

let set_retire_stop t spec =
  t.retire_stop <-
    (match spec with
     | None -> None
     | Some (target, on_stop) ->
       Some (Engine.cycles_of_time "Cpu.set_retire_stop" target, on_stop))

let retire_stop_armed t =
  match t.retire_stop with Some _ -> true | None -> false
let interrupts_taken t = Int64.of_int t.irqs_taken
let faults_taken t = Int64.of_int t.faults
let mmu t = t.mmu
let mem t = t.mem
let bus t = t.bus
let engine t = t.engine
let costs t = t.costs

let pp_gp_reason fmt = function
  | Privileged_instruction i ->
    Format.fprintf fmt "privileged instruction (%s)" (Isa.to_string i)
  | Io_denied port -> Format.fprintf fmt "i/o denied on port 0x%x" port
  | Bad_iret -> Format.fprintf fmt "malformed iret"
  | Bad_int_gate v -> Format.fprintf fmt "gate %d not callable" v
  | Bad_vector v -> Format.fprintf fmt "bad vector %d" v
  | Bad_ring r -> Format.fprintf fmt "bad ring %d" r

let pp_fault fmt = function
  | Page f ->
    Format.fprintf fmt "page fault at 0x%x (%s, %s)" f.Mmu.vaddr
      (match f.Mmu.access with
       | Mmu.Read -> "read"
       | Mmu.Write -> "write"
       | Mmu.Exec -> "exec")
      (if f.Mmu.not_present then "not present" else "protection")
  | Gp reason -> Format.fprintf fmt "protection fault: %a" pp_gp_reason reason
  | Undefined opcode -> Format.fprintf fmt "undefined opcode 0x%x" opcode
  | Breakpoint_trap -> Format.fprintf fmt "breakpoint"
  | Step_trap -> Format.fprintf fmt "single-step"
  | Machine_check addr -> Format.fprintf fmt "machine check at 0x%x" addr

let pp_event fmt = function
  | Fault (kind, pc) -> Format.fprintf fmt "fault@0x%x: %a" pc pp_fault kind
  | Irq vector -> Format.fprintf fmt "irq vector %d" vector
  | Soft_int (v, _) -> Format.fprintf fmt "int %d" v
  | Hypercall (imm, _) -> Format.fprintf fmt "vmcall 0x%x" imm
