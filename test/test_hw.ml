(* Tests for the hardware model: word arithmetic, physical memory, ISA
   encode/decode, the assembler, MMU translation, CPU execution semantics
   (including privilege, interrupts and paging) and the device models. *)

module Engine = Vmm_sim.Engine
module Word = Vmm_hw.Word
module Phys_mem = Vmm_hw.Phys_mem
module Isa = Vmm_hw.Isa
module Asm = Vmm_hw.Asm
module Mmu = Vmm_hw.Mmu
module Cpu = Vmm_hw.Cpu
module Io_bus = Vmm_hw.Io_bus
module Pic = Vmm_hw.Pic
module Pit = Vmm_hw.Pit
module Uart = Vmm_hw.Uart
module Scsi = Vmm_hw.Scsi
module Nic = Vmm_hw.Nic
module Machine = Vmm_hw.Machine
module Costs = Vmm_hw.Costs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* -- Word -- *)

let test_word_wrap () =
  check int "add wraps" 0 (Word.add 0xFFFFFFFF 1);
  check int "sub wraps" 0xFFFFFFFF (Word.sub 0 1);
  check int "mul wraps" 0xFFFFFFFE (Word.mul 0xFFFFFFFF 2);
  check int "signed view" (-1) (Word.to_signed 0xFFFFFFFF);
  check int "of_signed" 0xFFFFFFFF (Word.of_signed (-1))

let test_word_shifts () =
  check int "shl" 0x80000000 (Word.shift_left 1 31);
  check int "shl mod 32" 2 (Word.shift_left 1 33);
  check int "shr" 1 (Word.shift_right 0x80000000 31);
  check int "byte" 0xCD (Word.byte 0xABCD1234 2)

let test_word_compare () =
  check bool "unsigned" true (Word.unsigned_lt 1 0xFFFFFFFF);
  check bool "signed" true (Word.signed_lt 0xFFFFFFFF 1)

(* -- Phys_mem -- *)

let test_mem_rw () =
  let m = Phys_mem.create ~size:4096 in
  Phys_mem.write_u32 m 0 0xDEADBEEF;
  check int "u32" 0xDEADBEEF (Phys_mem.read_u32 m 0);
  check int "u8 LE" 0xEF (Phys_mem.read_u8 m 0);
  check int "u16 LE" 0xBEEF (Phys_mem.read_u16 m 0);
  Phys_mem.write_u16 m 100 0x1234;
  check int "u16 rt" 0x1234 (Phys_mem.read_u16 m 100)

let test_mem_bounds () =
  let m = Phys_mem.create ~size:16 in
  Alcotest.check_raises "oob read" (Phys_mem.Bus_error 16) (fun () ->
      ignore (Phys_mem.read_u8 m 16));
  Alcotest.check_raises "straddling u32" (Phys_mem.Bus_error 13) (fun () ->
      ignore (Phys_mem.read_u32 m 13))

(* Write generations, which the decoded-instruction and block caches
   validate against: a store bumps every granule it touches, sums cover
   whole granules, and a range outside memory is refused. *)
let test_mem_generations () =
  let m = Phys_mem.create ~size:256 in
  let g = 1 lsl Phys_mem.granule_bits in
  Phys_mem.write_u32 m (g - 2) 0xFFFFFFFF;
  check int "granule 0" 1 (Phys_mem.generation m 0);
  check int "granule 1" 1 (Phys_mem.generation m g);
  check int "granule 2" 0 (Phys_mem.generation m (2 * g));
  Phys_mem.write_u8 m (2 * g) 1;
  Phys_mem.fill m ~addr:(2 * g) ~len:(2 * g) 0;
  check int "sum" 5 (Phys_mem.generation_sum m ~addr:0 ~len:256);
  check int "partial granules" 4 (Phys_mem.generation_sum m ~addr:(g - 1) ~len:(g + 2));
  check int "empty range" 0 (Phys_mem.generation_sum m ~addr:0 ~len:0);
  Alcotest.check_raises "range leaves memory" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Phys_mem.generation_sum m ~addr:200 ~len:100))

let test_mem_checksum_matches_rfc () =
  (* Independent reference implementation. *)
  let m = Phys_mem.create ~size:64 in
  let data = [ 0x45; 0x00; 0x00; 0x3c; 0x1c; 0x46; 0x40; 0x00 ] in
  List.iteri (fun i v -> Phys_mem.write_u8 m i v) data;
  let reference =
    let sum =
      (0x45 lor (0x00 lsl 8))
      + (0x00 lor (0x3c lsl 8))
      + (0x1c lor (0x46 lsl 8))
      + (0x40 lor (0x00 lsl 8))
    in
    let s = (sum land 0xFFFF) + (sum lsr 16) in
    lnot ((s land 0xFFFF) + (s lsr 16)) land 0xFFFF
  in
  check int "checksum" reference (Phys_mem.checksum m ~addr:0 ~len:8)

let test_mem_checksum_odd_len () =
  let m = Phys_mem.create ~size:8 in
  Phys_mem.write_u8 m 0 0xAB;
  Phys_mem.write_u8 m 1 0xCD;
  Phys_mem.write_u8 m 2 0x12;
  let sum = 0xAB lor (0xCD lsl 8) in
  let sum = sum + 0x12 in
  let s = (sum land 0xFFFF) + (sum lsr 16) in
  check int "odd trailing byte" (lnot s land 0xFFFF)
    (Phys_mem.checksum m ~addr:0 ~len:3)

(* The definition [Phys_mem.checksum_add] must keep: byte at an even
   global index adds itself, one at an odd index adds itself shifted left
   by 8. *)
let checksum_add_bytewise mem ~addr ~len ~index sum =
  let s = ref sum in
  for i = 0 to len - 1 do
    let b = Phys_mem.read_u8 mem (addr + i) in
    s := !s + if (index + i) land 1 = 0 then b else b lsl 8
  done;
  !s

let prop_checksum_add_bytewise =
  (* Unaligned addresses, lengths 0-3000, both index parities and a
     non-zero running sum; a random two-chunk split must sum the same as
     one call. *)
  let gen =
    QCheck.Gen.(
      pair
        (quad (int_bound 4095) (int_bound 3000) (int_bound 1_000_000)
           (int_range 1 (1 lsl 40)))
        (pair (int_bound 3000) (int_bound 0xFFFF)))
  in
  QCheck.Test.make ~name:"checksum_add matches byte loop" ~count:300
    (QCheck.make gen ~print:(fun ((addr, len, index, sum), (cut, seed)) ->
         Printf.sprintf "addr=%d len=%d index=%d sum=%d cut=%d seed=%d" addr
           len index sum cut seed))
    (fun ((addr, len, index, sum), (cut, seed)) ->
      let mem = Phys_mem.create ~size:8192 in
      for i = 0 to 8191 do
        Phys_mem.write_u8 mem i (((i * 7919) + (seed * 31)) lxor (i lsr 5))
      done;
      let cut = if len = 0 then 0 else cut mod (len + 1) in
      let whole = Phys_mem.checksum_add mem ~addr ~len ~index sum in
      let split =
        Phys_mem.checksum_add mem ~addr:(addr + cut) ~len:(len - cut)
          ~index:(index + cut)
          (Phys_mem.checksum_add mem ~addr ~len:cut ~index sum)
      in
      whole = checksum_add_bytewise mem ~addr ~len ~index sum && split = whole)

let test_mem_checksum_long_run () =
  (* 1 MiB of 0xFF bytes from an odd address: enough words that the
     word-wide kernel must fold its lane accumulator several times. *)
  let mem = Phys_mem.create ~size:(1 lsl 21) in
  Phys_mem.fill mem ~addr:0 ~len:(1 lsl 21) 0xFF;
  List.iter
    (fun index ->
      check int
        (Printf.sprintf "index %d" index)
        (checksum_add_bytewise mem ~addr:3 ~len:(1 lsl 20) ~index 5)
        (Phys_mem.checksum_add mem ~addr:3 ~len:(1 lsl 20) ~index 5))
    [ 0; 1 ]

(* -- ISA encode/decode -- *)

let reg_gen = QCheck.Gen.int_bound 15
let imm_gen = QCheck.Gen.map (fun v -> v land 0xFFFFFFFF) QCheck.Gen.int

let instr_gen : Isa.instr QCheck.Gen.t =
  let open QCheck.Gen in
  let r = reg_gen and i = imm_gen in
  oneof
    [
      return Isa.Nop;
      return Isa.Hlt;
      map2 (fun a b -> Isa.Movi (a, b)) r i;
      map2 (fun a b -> Isa.Mov (a, b)) r r;
      map3 (fun a b c -> Isa.Add (a, b, c)) r r r;
      map3 (fun a b c -> Isa.Addi (a, b, c)) r r i;
      map3 (fun a b c -> Isa.Sub (a, b, c)) r r r;
      map3 (fun a b c -> Isa.And_ (a, b, c)) r r r;
      map3 (fun a b c -> Isa.Or_ (a, b, c)) r r r;
      map3 (fun a b c -> Isa.Xor_ (a, b, c)) r r r;
      map3 (fun a b c -> Isa.Shl (a, b, c)) r r r;
      map3 (fun a b c -> Isa.Shr (a, b, c)) r r r;
      map3 (fun a b c -> Isa.Mul (a, b, c)) r r r;
      map2 (fun a b -> Isa.Cmp (a, b)) r r;
      map2 (fun a b -> Isa.Cmpi (a, b)) r i;
      map3 (fun a b c -> Isa.Ld (a, b, c)) r r i;
      map3 (fun a b c -> Isa.St (a, b, c)) r i r;
      map3 (fun a b c -> Isa.Ldb (a, b, c)) r r i;
      map3 (fun a b c -> Isa.Stb (a, b, c)) r i r;
      map (fun a -> Isa.Jmp a) i;
      map (fun a -> Isa.Jz a) i;
      map (fun a -> Isa.Jnz a) i;
      map (fun a -> Isa.Jlt a) i;
      map (fun a -> Isa.Jge a) i;
      map (fun a -> Isa.Jb a) i;
      map (fun a -> Isa.Jae a) i;
      map (fun a -> Isa.Jr a) r;
      map (fun a -> Isa.Call a) i;
      return Isa.Ret;
      map (fun a -> Isa.Push a) r;
      map (fun a -> Isa.Pop a) r;
      map2 (fun a b -> Isa.In_ (a, b)) r r;
      map2 (fun a b -> Isa.Ini (a, b)) r i;
      map2 (fun a b -> Isa.Out (a, b)) r r;
      map2 (fun a b -> Isa.Outi (a, b)) i r;
      map (fun v -> Isa.Int_ (v land 0x3F)) (int_bound 63);
      return Isa.Iret;
      return Isa.Sti;
      return Isa.Cli;
      map (fun a -> Isa.Liht a) r;
      map (fun a -> Isa.Lptb a) r;
      map2 (fun a b -> Isa.Lstk (a land 15, b)) (int_bound 15) r;
      return Isa.Tlbflush;
      map3 (fun a b c -> Isa.Copy (a, b, c)) r r r;
      map3 (fun a b c -> Isa.Csum (a, b, c)) r r r;
      map (fun a -> Isa.Rdtsc a) r;
      map (fun a -> Isa.Vmcall a) i;
      return Isa.Brk;
    ]

let instr_arbitrary =
  QCheck.make instr_gen ~print:(fun i -> Isa.to_string i)

let prop_isa_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:2000 instr_arbitrary
    (fun i ->
      let b = Isa.encode i in
      Bytes.length b = Isa.width && Isa.decode ~addr:0 b ~off:0 = i)

let test_isa_decode_error () =
  let b = Bytes.make 8 '\xFE' in
  Alcotest.check_raises "bad opcode"
    (Isa.Decode_error { addr = 0; opcode = 0xFE })
    (fun () -> ignore (Isa.decode ~addr:0 b ~off:0))

let test_isa_privileged_set () =
  check bool "sti" true (Isa.is_privileged Isa.Sti);
  check bool "hlt" true (Isa.is_privileged Isa.Hlt);
  check bool "add" false (Isa.is_privileged (Isa.Add (0, 1, 2)));
  check bool "in" false (Isa.is_privileged (Isa.Ini (0, 0x20)))

(* -- Assembler -- *)

let test_asm_labels () =
  let a = Asm.create ~origin:0x100 () in
  Asm.jmp a (Asm.lbl "target");
  Asm.nop a;
  Asm.label a "target";
  Asm.hlt a;
  let p = Asm.assemble a in
  check int "label addr" (0x100 + 16) (Asm.symbol p "target");
  let i = Isa.decode ~addr:0 p.Asm.code ~off:0 in
  check bool "jump resolved" true (i = Isa.Jmp (0x100 + 16))

let test_asm_undefined_label () =
  let a = Asm.create () in
  Asm.jmp a (Asm.lbl "nowhere");
  Alcotest.check_raises "undefined" (Asm.Undefined_label "nowhere") (fun () ->
      ignore (Asm.assemble a))

let test_asm_duplicate_label () =
  let a = Asm.create () in
  Asm.label a "x";
  Alcotest.check_raises "duplicate" (Asm.Duplicate_label "x") (fun () ->
      Asm.label a "x")

let test_asm_data_and_align () =
  let a = Asm.create ~origin:0 () in
  Asm.bytes a (Bytes.of_string "abc");
  Asm.align a 8;
  Asm.label a "data";
  Asm.word a (Asm.lbl "data");
  let p = Asm.assemble a in
  check int "aligned" 8 (Asm.symbol p "data");
  let m = Phys_mem.create ~size:64 in
  Asm.load p m;
  check int "word self-ref" 8 (Phys_mem.read_u32 m 8)

(* -- Machine helpers -- *)

let fresh_machine () = Machine.create ~mem_size:(2 * 1024 * 1024) ()

let run_program ?(limit = 200_000) build =
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  build a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  let halted = Machine.run_until_halted ~limit m in
  check bool "program halted" true halted;
  (m, p)

let reg m r = Cpu.read_reg (Machine.cpu m) r

(* -- CPU basics -- *)

let test_cpu_arith () =
  let m, _ =
    run_program (fun a ->
        Asm.movi a 1 (Asm.imm 10);
        Asm.movi a 2 (Asm.imm 32);
        Asm.add a 3 1 2;
        Asm.sub a 4 2 1;
        Asm.mul a 5 1 2;
        Asm.movi a 6 (Asm.imm 0xF0F0);
        Asm.movi a 7 (Asm.imm 0x0FF0);
        Asm.and_ a 8 6 7;
        Asm.or_ a 9 6 7;
        Asm.xor_ a 10 6 7;
        Asm.hlt a)
  in
  check int "add" 42 (reg m 3);
  check int "sub" 22 (reg m 4);
  check int "mul" 320 (reg m 5);
  check int "and" 0x00F0 (reg m 8);
  check int "or" 0xFFF0 (reg m 9);
  check int "xor" 0xFF00 (reg m 10)

let test_cpu_branches () =
  let m, _ =
    run_program (fun a ->
        (* r1 counts loop iterations 0..4 *)
        Asm.movi a 1 (Asm.imm 0);
        Asm.label a "loop";
        Asm.addi a 1 1 (Asm.imm 1);
        Asm.cmpi a 1 (Asm.imm 5);
        Asm.jnz a (Asm.lbl "loop");
        (* signed comparison: -1 < 1 *)
        Asm.movi a 2 (Asm.imm 0xFFFFFFFF);
        Asm.movi a 3 (Asm.imm 1);
        Asm.cmp a 2 3;
        Asm.jlt a (Asm.lbl "signed_ok");
        Asm.movi a 4 (Asm.imm 0);
        Asm.hlt a;
        Asm.label a "signed_ok";
        Asm.movi a 4 (Asm.imm 1);
        (* unsigned: 0xFFFFFFFF > 1 *)
        Asm.cmp a 2 3;
        Asm.jae a (Asm.lbl "unsigned_ok");
        Asm.movi a 5 (Asm.imm 0);
        Asm.hlt a;
        Asm.label a "unsigned_ok";
        Asm.movi a 5 (Asm.imm 1);
        Asm.hlt a)
  in
  check int "loop count" 5 (reg m 1);
  check int "signed" 1 (reg m 4);
  check int "unsigned" 1 (reg m 5)

let test_cpu_call_stack () =
  let m, _ =
    run_program (fun a ->
        Asm.movi a Isa.sp (Asm.imm 0x8000);
        Asm.movi a 1 (Asm.imm 7);
        Asm.call a (Asm.lbl "double");
        Asm.hlt a;
        Asm.label a "double";
        Asm.push a 2;
        Asm.add a 2 1 1;
        Asm.mov a 1 2;
        Asm.pop a 2;
        Asm.ret a)
  in
  check int "doubled" 14 (reg m 1);
  check int "sp restored" 0x8000 (reg m Isa.sp)

let test_cpu_memory () =
  let m, _ =
    run_program (fun a ->
        Asm.movi a 1 (Asm.imm 0x9000);
        Asm.movi a 2 (Asm.imm 0xCAFEBABE);
        Asm.st a 1 4 2;
        Asm.ld a 3 1 4;
        Asm.ldb a 4 1 4;
        Asm.movi a 5 (Asm.imm 0x55);
        Asm.stb a 1 100 5;
        Asm.ldb a 6 1 100;
        Asm.hlt a)
  in
  check int "ld" 0xCAFEBABE (reg m 3);
  check int "ldb low byte" 0xBE (reg m 4);
  check int "stb/ldb" 0x55 (reg m 6)

let test_cpu_copy_csum () =
  let m = fresh_machine () in
  let mem = Machine.mem m in
  let src = 0x10000 and dst = 0x20000 and len = 1000 in
  for i = 0 to len - 1 do
    Phys_mem.write_u8 mem (src + i) ((i * 31) land 0xFF)
  done;
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm dst);
  Asm.movi a 2 (Asm.imm src);
  Asm.movi a 3 (Asm.imm len);
  Asm.copy a 1 2 3;
  Asm.csum a 4 1 3;
  Asm.hlt a;
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  ignore (Machine.run_until_halted m);
  check bool "copied" true
    (Phys_mem.read_bytes mem ~addr:src ~len
    = Phys_mem.read_bytes mem ~addr:dst ~len);
  check int "checksum matches reference"
    (Phys_mem.checksum mem ~addr:dst ~len)
    (reg m 4)

let test_cpu_rdtsc_monotonic () =
  let m, _ =
    run_program (fun a ->
        Asm.rdtsc a 1;
        Asm.nop a;
        Asm.nop a;
        Asm.rdtsc a 2;
        Asm.hlt a)
  in
  check bool "tsc advanced" true (reg m 2 > reg m 1)

(* -- Interrupt table plumbing -- *)

let gate_flags ~ring ~dpl = 1 lor (ring lsl 1) lor (dpl lsl 3)

let write_gate mem ~table ~vector ~handler ~ring ~dpl =
  Phys_mem.write_u32 mem (table + (8 * vector)) handler;
  Phys_mem.write_u32 mem (table + (8 * vector) + 4) (gate_flags ~ring ~dpl)

let test_cpu_software_interrupt () =
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 2 (Asm.imm 0);
  Asm.int_ a 48;
  (* handler returns here *)
  Asm.addi a 2 2 (Asm.imm 100);
  Asm.hlt a;
  Asm.label a "handler";
  Asm.addi a 2 2 (Asm.imm 1);
  Asm.iret a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate (Machine.mem m) ~table:0x2000 ~vector:48
    ~handler:(Asm.symbol p "handler") ~ring:0 ~dpl:3;
  ignore (Machine.run_until_halted m);
  check int "handler then continuation" 101 (reg m 2)

let test_cpu_privilege_fault_ring3 () =
  (* STI at ring 3 must deliver #GP to the ring-0 handler. *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  (* ring-0 setup *)
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0x9000);
  Asm.lstk a 0 1;
  (* drop to ring 3 via iret: frame = error, pc, flags(cpl=3), sp *)
  Asm.movi a 3 (Asm.imm 0x7000);
  Asm.push a 3 (* user sp *);
  Asm.movi a 3 (Asm.imm 0x3000) (* flags: cpl=3, if=0 *);
  Asm.push a 3;
  Asm.movi a 3 (Asm.lbl "user");
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0);
  Asm.push a 3;
  Asm.iret a;
  Asm.label a "user";
  Asm.sti a (* must fault *);
  Asm.label a "unreachable";
  Asm.jmp a (Asm.lbl "unreachable");
  Asm.label a "gp_handler";
  Asm.movi a 5 (Asm.imm 0xFA17);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate (Machine.mem m) ~table:0x2000 ~vector:Isa.vec_protection
    ~handler:(Asm.symbol p "gp_handler") ~ring:0 ~dpl:0;
  ignore (Machine.run_until_halted m);
  check int "gp handler ran" 0xFA17 (reg m 5);
  check int "back at ring 0" 0 (Cpu.cpl (Machine.cpu m))

let test_cpu_stack_switch_on_ring_change () =
  (* Interrupt from ring 3 must land on the ring-0 stack from LSTK. *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0xA000);
  Asm.lstk a 0 1;
  Asm.movi a 3 (Asm.imm 0x7000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0x3000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.lbl "user");
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0);
  Asm.push a 3;
  Asm.iret a;
  Asm.label a "user";
  Asm.int_ a 48;
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "handler";
  Asm.mov a 6 Isa.sp;
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate (Machine.mem m) ~table:0x2000 ~vector:48
    ~handler:(Asm.symbol p "handler") ~ring:0 ~dpl:3;
  ignore (Machine.run_until_halted m);
  (* 4 words pushed below the ring-0 entry stack top *)
  check int "switched stack" (0xA000 - 16) (reg m 6)

let test_cpu_int_gate_dpl_enforced () =
  (* INT 49 from ring 3 with dpl 0 must raise #GP instead. *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0xA000);
  Asm.lstk a 0 1;
  Asm.movi a 3 (Asm.imm 0x7000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0x3000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.lbl "user");
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0);
  Asm.push a 3;
  Asm.iret a;
  Asm.label a "user";
  Asm.int_ a 49;
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "kernel_gate";
  Asm.movi a 5 (Asm.imm 0xBAD);
  Asm.hlt a;
  Asm.label a "gp";
  Asm.movi a 5 (Asm.imm 0x600D);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate (Machine.mem m) ~table:0x2000 ~vector:49
    ~handler:(Asm.symbol p "kernel_gate") ~ring:0 ~dpl:0;
  write_gate (Machine.mem m) ~table:0x2000 ~vector:Isa.vec_protection
    ~handler:(Asm.symbol p "gp") ~ring:0 ~dpl:0;
  ignore (Machine.run_until_halted m);
  check int "gp instead of gate" 0x600D (reg m 5)

let test_cpu_hardware_interrupt () =
  (* Program the PIT one-shot; the handler bumps a counter and halts. *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 2 (Asm.imm 100);
  Asm.outi a (Asm.imm Vmm_hw.Machine.Ports.pit) 2 (* reload low *);
  Asm.movi a 2 (Asm.imm 0);
  Asm.outi a (Asm.imm (Vmm_hw.Machine.Ports.pit + 1)) 2;
  Asm.movi a 2 (Asm.imm 2);
  Asm.outi a (Asm.imm (Vmm_hw.Machine.Ports.pit + 2)) 2 (* one-shot *);
  Asm.sti a;
  Asm.label a "wait";
  Asm.jmp a (Asm.lbl "wait");
  Asm.label a "timer";
  Asm.movi a 7 (Asm.imm 0x7E57);
  (* EOI *)
  Asm.movi a 2 (Asm.imm 0x20);
  Asm.outi a (Asm.imm Vmm_hw.Machine.Ports.pic) 2;
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate (Machine.mem m) ~table:0x2000
    ~vector:(Isa.vec_irq_base_default + Machine.Irq.timer)
    ~handler:(Asm.symbol p "timer") ~ring:0 ~dpl:0;
  ignore (Machine.run_until_halted ~limit:2_000_000 m);
  check int "timer handler ran" 0x7E57 (reg m 7);
  check int "pit fired once" 1 (Pit.ticks_fired (Machine.pit m))

let test_cpu_if_masks_interrupts () =
  (* With IF clear the PIT interrupt must stay pending. *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 2 (Asm.imm 10);
  Asm.outi a (Asm.imm Vmm_hw.Machine.Ports.pit) 2;
  Asm.movi a 2 (Asm.imm 0);
  Asm.outi a (Asm.imm (Vmm_hw.Machine.Ports.pit + 1)) 2;
  Asm.movi a 2 (Asm.imm 2);
  Asm.outi a (Asm.imm (Vmm_hw.Machine.Ports.pit + 2)) 2;
  (* busy loop long enough for the one-shot to expire *)
  Asm.movi a 1 (Asm.imm 0);
  Asm.label a "loop";
  Asm.addi a 1 1 (Asm.imm 1);
  Asm.cmpi a 1 (Asm.imm 50_000);
  Asm.jnz a (Asm.lbl "loop");
  Asm.hlt a;
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  ignore (Machine.run_until_halted ~limit:2_000_000 m);
  check bool "request latched, not delivered" true
    (Pic.requested (Machine.pic m) land 1 = 1);
  check Alcotest.int64 "no interrupt taken" 0L
    (Cpu.interrupts_taken (Machine.cpu m))

(* -- Paging -- *)

let build_identity_tables mem ~pd ~pt ~mbytes ~user =
  (* One page table covers 4 MiB; map [0, mbytes MiB) identity. *)
  let pages = mbytes * 256 in
  Phys_mem.write_u32 mem pd (Mmu.make_pte ~frame:pt ~writable:true ~user);
  for i = 0 to pages - 1 do
    Phys_mem.write_u32 mem
      (pt + (4 * i))
      (Mmu.make_pte ~frame:(i * 4096) ~writable:true ~user)
  done

(* [(paddr, penalty)] of one translation: the physical address and the
   TLB-miss cycles it left for the caller to drain. *)
let translate_charged mmu mem ~cpl access vaddr =
  let paddr = Mmu.translate mmu mem ~ptb:0x4000 ~cpl access vaddr in
  let penalty = Mmu.penalty mmu in
  let cycles = !penalty in
  penalty := 0;
  (paddr, cycles)

let test_mmu_translate_and_bits () =
  let costs = Costs.default in
  let mem = Phys_mem.create ~size:(2 * 1024 * 1024) in
  let mmu = Mmu.create costs in
  build_identity_tables mem ~pd:0x4000 ~pt:0x5000 ~mbytes:1 ~user:false;
  let paddr, cyc = translate_charged mmu mem ~cpl:0 Mmu.Read 0x1234 in
  check int "identity" 0x1234 paddr;
  check bool "miss charged" true (cyc > 0);
  check int "penalty drained" 0 !(Mmu.penalty mmu);
  let _, cyc2 = translate_charged mmu mem ~cpl:0 Mmu.Read 0x1238 in
  check int "tlb hit free" 0 cyc2;
  let pte = Phys_mem.read_u32 mem (0x5000 + 4) in
  check bool "accessed set" true (pte land Mmu.pte_accessed <> 0);
  ignore (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Write 0x1300);
  let pte = Phys_mem.read_u32 mem (0x5000 + 4) in
  check bool "dirty set" true (pte land Mmu.pte_dirty <> 0)

let test_mmu_faults () =
  let costs = Costs.default in
  let mem = Phys_mem.create ~size:(2 * 1024 * 1024) in
  let mmu = Mmu.create costs in
  build_identity_tables mem ~pd:0x4000 ~pt:0x5000 ~mbytes:1 ~user:false;
  (* unmapped: beyond 1 MiB *)
  (try
     ignore (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Read 0x200000);
     Alcotest.fail "expected not-present fault"
   with Mmu.Page_fault f -> check bool "not present" true f.Mmu.not_present);
  (* user access to supervisor page *)
  (try
     ignore (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:3 Mmu.Read 0x1000);
     Alcotest.fail "expected protection fault"
   with Mmu.Page_fault f -> check bool "protection" false f.Mmu.not_present);
  (* write to read-only page *)
  Phys_mem.write_u32 mem (0x5000 + 8)
    (Mmu.make_pte ~frame:0x2000 ~writable:false ~user:false);
  Mmu.flush mmu;
  try
    ignore (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Write 0x2000);
    Alcotest.fail "expected write fault"
  with Mmu.Page_fault f -> check bool "write prot" false f.Mmu.not_present

let test_mmu_probe () =
  let mem = Phys_mem.create ~size:(2 * 1024 * 1024) in
  build_identity_tables mem ~pd:0x4000 ~pt:0x5000 ~mbytes:1 ~user:true;
  (match Mmu.probe mem ~ptb:0x4000 0x3000 with
   | Some pte ->
     check int "frame" 0x3000 (Mmu.frame_of pte);
     check bool "user" true (Mmu.is_user pte)
   | None -> Alcotest.fail "expected mapping");
  check bool "unmapped probe" true (Mmu.probe mem ~ptb:0x4000 0x600000 = None)

let test_mmu_write_hit_dirty_cached () =
  (* The TLB caches the dirty state: after the first write marks the PTE,
     later write hits must not re-read or re-write it.  Pin that by clearing
     the PTE's dirty bit behind the TLB's back — a write hit must leave it
     clear, and only a flush (which drops the cached state) re-sets it. *)
  let costs = Costs.default in
  let mem = Phys_mem.create ~size:(2 * 1024 * 1024) in
  let mmu = Mmu.create costs in
  build_identity_tables mem ~pd:0x4000 ~pt:0x5000 ~mbytes:1 ~user:false;
  let pte_addr = 0x5000 + 4 (* vpn 1 *) in
  let pte_dirty () = Phys_mem.read_u32 mem pte_addr land Mmu.pte_dirty <> 0 in
  let _, fill = translate_charged mmu mem ~cpl:0 Mmu.Read 0x1000 in
  check bool "fill charged" true (fill > 0);
  check bool "read fill leaves clean" false (pte_dirty ());
  let _, hit = translate_charged mmu mem ~cpl:0 Mmu.Write 0x1004 in
  check int "write hit free" 0 hit;
  check bool "first write sets dirty" true (pte_dirty ());
  Phys_mem.write_u32 mem pte_addr
    (Phys_mem.read_u32 mem pte_addr land lnot Mmu.pte_dirty);
  ignore (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Write 0x1008);
  check bool "later write hits skip the PTE" false (pte_dirty ());
  Mmu.flush mmu;
  let _, refill = translate_charged mmu mem ~cpl:0 Mmu.Write 0x100C in
  check bool "miss after flush" true (refill > 0);
  check bool "dirty re-set after flush" true (pte_dirty ());
  check bool "hits counted" true (Int64.compare (Mmu.tlb_hits mmu) 2L >= 0)

(* The hit branch of [Mmu.translate] may skip work only when nothing is
   left to do: a TLB-resident entry must still set the PTE dirty bit on
   its first write, and must still fault a ring-3 access to a
   supervisor page and an exec of an NX page. *)
let test_mmu_hit_path () =
  let mem = Phys_mem.create ~size:(2 * 1024 * 1024) in
  let mmu = Mmu.create Costs.default in
  build_identity_tables mem ~pd:0x4000 ~pt:0x5000 ~mbytes:1 ~user:false;
  let misses () = Mmu.tlb_misses mmu in
  let protection_fault ~cpl access vaddr =
    match Mmu.translate mmu mem ~ptb:0x4000 ~cpl access vaddr with
    | _ -> false
    | exception Mmu.Page_fault f ->
      (not f.Mmu.not_present) && f.Mmu.access = access && f.Mmu.vaddr = vaddr
  in
  (* dirty bit on the first write hit *)
  let pte_addr = 0x5000 + (4 * 3) in
  ignore (translate_charged mmu mem ~cpl:0 Mmu.Read 0x3000);
  check bool "read fill leaves clean" true
    (Phys_mem.read_u32 mem pte_addr land Mmu.pte_dirty = 0);
  let m0 = misses () in
  let _, hit = translate_charged mmu mem ~cpl:0 Mmu.Write 0x3010 in
  check int "write is a hit" 0 hit;
  check Alcotest.int64 "no walk" m0 (misses ());
  check bool "write hit sets dirty" true
    (Phys_mem.read_u32 mem pte_addr land Mmu.pte_dirty <> 0);
  (* ring 3 on a resident supervisor entry *)
  ignore (translate_charged mmu mem ~cpl:0 Mmu.Read 0x4000);
  let m1 = misses () in
  check bool "ring-3 read of supervisor page faults" true
    (protection_fault ~cpl:3 Mmu.Read 0x4008);
  check Alcotest.int64 "faulted on the hit" m1 (misses ());
  check int "ring 0 still hits" 0x4008
    (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Read 0x4008);
  (* exec of a resident NX entry *)
  Phys_mem.write_u32 mem (0x5000 + (4 * 6))
    (Mmu.make_pte ~frame:0x6000 ~writable:true ~user:false lor Mmu.pte_nx);
  ignore (translate_charged mmu mem ~cpl:0 Mmu.Read 0x6000);
  let m2 = misses () in
  check bool "exec of NX page faults" true (protection_fault ~cpl:0 Mmu.Exec 0x6004);
  check Alcotest.int64 "faulted on the hit" m2 (misses ());
  check int "reads of the NX page still hit" 0x6004
    (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Read 0x6004);
  check int "hits leave no penalty" 0 !(Mmu.penalty mmu)

let test_cpu_page_fault_delivery () =
  (* Enable paging, then touch an unmapped page; #PF handler records the
     faulting address from the error slot. *)
  let m = fresh_machine () in
  let mem = Machine.mem m in
  build_identity_tables mem ~pd:0x40000 ~pt:0x41000 ~mbytes:1 ~user:false;
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0x40000);
  Asm.lptb a 1;
  Asm.movi a 2 (Asm.imm 0x500000);
  Asm.ld a 3 2 0 (* faults: beyond mapped 1 MiB *);
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "pf";
  Asm.ld a 4 Isa.sp 0 (* error slot = faulting vaddr *);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate mem ~table:0x2000 ~vector:Isa.vec_page_fault
    ~handler:(Asm.symbol p "pf") ~ring:0 ~dpl:0;
  ignore (Machine.run_until_halted m);
  check int "faulting address" 0x500000 (reg m 4)

(* -- Devices -- *)

let test_pic_priority_and_eoi () =
  let pic = Pic.create () in
  Pic.raise_irq pic 5;
  Pic.raise_irq pic 2;
  check (Alcotest.option int) "highest priority first"
    (Some (Isa.vec_irq_base_default + 2))
    (Pic.ack pic);
  (* 5 still pending but blocked? line 5 is lower priority than in-service 2 *)
  check bool "blocked by in-service" false (Pic.pending pic);
  Pic.io_write pic 0 0x20 (* EOI *);
  check (Alcotest.option int) "then lower priority"
    (Some (Isa.vec_irq_base_default + 5))
    (Pic.ack pic);
  Pic.io_write pic 0 0x20;
  check bool "drained" false (Pic.pending pic)

let test_pic_higher_priority_preempts_service () =
  let pic = Pic.create () in
  Pic.raise_irq pic 5;
  ignore (Pic.ack pic);
  Pic.raise_irq pic 1;
  check bool "higher priority deliverable over in-service 5" true
    (Pic.pending pic)

let test_pic_mask () =
  let pic = Pic.create () in
  Pic.io_write pic 1 0x01 (* mask line 0 *);
  Pic.raise_irq pic 0;
  check bool "masked" false (Pic.pending pic);
  Pic.io_write pic 1 0x00;
  check bool "unmasked" true (Pic.pending pic)

let test_pic_intr_line_callback () =
  let pic = Pic.create () in
  let level = ref false in
  Pic.set_intr pic (fun l -> level := l);
  Pic.raise_irq pic 3;
  check bool "asserted" true !level;
  ignore (Pic.ack pic);
  Pic.io_write pic 0 0x20;
  check bool "deasserted" false !level

let test_pit_periodic () =
  let engine = Engine.create () in
  let fired = ref 0 in
  let costs = Costs.default in
  let pit = Pit.create ~engine ~costs ~raise_irq:(fun () -> incr fired) () in
  (* 1000 input ticks per period *)
  Pit.io_write pit 0 1000;
  Pit.io_write pit 1 0;
  Pit.io_write pit 2 1;
  let second = Costs.cycles_of_seconds costs 1.0 in
  Engine.run_until engine ~time:second;
  (* 1193182/1000 ≈ 1193 expiries in one second *)
  check bool "rate" true (abs (!fired - 1193) <= 2);
  Pit.io_write pit 2 0;
  let before = !fired in
  Engine.run_until engine ~time:(Int64.mul second 2L);
  check int "stopped" before !fired

let test_uart_wire () =
  let engine = Engine.create () in
  let costs = Costs.default in
  let uart = Uart.create ~engine ~costs () in
  let received = ref [] in
  Uart.set_on_tx uart (fun b -> received := b :: !received);
  Uart.io_write uart 0 (Char.code 'h');
  Uart.io_write uart 0 (Char.code 'i');
  check int "tx busy" 0 (Uart.io_read uart 1 land 2);
  ignore (Engine.run_until_idle engine);
  check (Alcotest.list int) "bytes in order"
    [ Char.code 'h'; Char.code 'i' ]
    (List.rev !received);
  check int "tx idle" 2 (Uart.io_read uart 1 land 2)

let test_uart_rx_irq () =
  let engine = Engine.create () in
  let uart = Uart.create ~engine ~costs:Costs.default () in
  let irqs = ref 0 in
  Uart.set_irq uart (fun () -> incr irqs);
  Uart.inject_rx uart 0x41;
  check int "no irq while disabled" 0 !irqs;
  Uart.io_write uart 2 1 (* enable: pending byte raises at once *);
  check int "irq on enable with pending" 1 !irqs;
  check int "status rx ready" 1 (Uart.io_read uart 1 land 1);
  check int "data" 0x41 (Uart.io_read uart 0);
  check int "drained" 0 (Uart.io_read uart 1 land 1)

let test_scsi_read () =
  let m = fresh_machine () in
  let scsi = Machine.scsi m and bus = Machine.bus m in
  let base = Machine.Ports.scsi in
  Io_bus.write bus base 1 (* target 1 *);
  Io_bus.write bus (base + 1) 4 (* lba 4 *);
  Io_bus.write bus (base + 2) 2048 (* bytes *);
  Io_bus.write bus (base + 3) 0x30000 (* dma *);
  Io_bus.write bus (base + 4) 1 (* read *);
  check int "busy bit" (1 lsl 17) (Io_bus.read bus (base + 5) land (1 lsl 17));
  ignore (Engine.run_until_idle (Machine.engine m));
  check int "done bit" 2 (Io_bus.read bus (base + 5) land 2);
  let off = 4 * Scsi.sector_size in
  let ok = ref true in
  for i = 0 to 2047 do
    if
      Phys_mem.read_u8 (Machine.mem m) (0x30000 + i)
      <> Scsi.pattern_byte ~target:1 ~offset:(off + i)
    then ok := false
  done;
  check bool "pattern data" true !ok;
  check bool "irq raised" true
    (Pic.requested (Machine.pic m) land (1 lsl Machine.Irq.scsi) <> 0);
  Io_bus.write bus (base + 6) 1 (* ack *);
  check int "done cleared" 0 (Io_bus.read bus (base + 5) land 2);
  check int "one read" 1 (Scsi.reads_completed scsi)

let test_scsi_write_readback () =
  let m = fresh_machine () in
  let bus = Machine.bus m and mem = Machine.mem m in
  let base = Machine.Ports.scsi in
  Phys_mem.fill mem ~addr:0x30000 ~len:512 0xAB;
  Io_bus.write bus base 0;
  Io_bus.write bus (base + 1) 10;
  Io_bus.write bus (base + 2) 512;
  Io_bus.write bus (base + 3) 0x30000;
  Io_bus.write bus (base + 4) 2 (* write *);
  ignore (Engine.run_until_idle (Machine.engine m));
  Io_bus.write bus (base + 6) 0;
  (* read it back elsewhere *)
  Io_bus.write bus base 0;
  Io_bus.write bus (base + 1) 10;
  Io_bus.write bus (base + 2) 512;
  Io_bus.write bus (base + 3) 0x40000;
  Io_bus.write bus (base + 4) 1;
  ignore (Engine.run_until_idle (Machine.engine m));
  check int "written data read back" 0xAB (Phys_mem.read_u8 mem 0x40000);
  check int "last byte too" 0xAB (Phys_mem.read_u8 mem (0x40000 + 511))

let test_scsi_streaming_rate () =
  (* Completion time of a 1 MiB read must match the configured media rate. *)
  let m = fresh_machine () in
  let bus = Machine.bus m in
  let base = Machine.Ports.scsi in
  let costs = Machine.costs m in
  let bytes = 1024 * 1024 in
  Io_bus.write bus base 0;
  Io_bus.write bus (base + 1) 0;
  Io_bus.write bus (base + 2) bytes;
  Io_bus.write bus (base + 3) 0x100000;
  let t0 = Engine.now (Machine.engine m) in
  Io_bus.write bus (base + 4) 1;
  ignore (Engine.run_until_idle (Machine.engine m));
  let elapsed = Int64.to_float (Int64.sub (Engine.now (Machine.engine m)) t0) in
  let expected =
    float_of_int (8 * bytes) /. (costs.Costs.disk_rate_mbps *. 1e6)
    *. costs.Costs.cpu_hz
  in
  check bool "rate within 5%" true
    (abs_float (elapsed -. expected) /. expected < 0.05)

let test_nic_tx () =
  let m = fresh_machine () in
  let nic = Machine.nic m and bus = Machine.bus m and mem = Machine.mem m in
  let frames = ref [] in
  Nic.set_on_frame nic (fun f -> frames := f :: !frames);
  let base = Machine.Ports.nic in
  Phys_mem.fill mem ~addr:0x50000 ~len:100 0x5A;
  Io_bus.write bus base 0x50000;
  Io_bus.write bus (base + 1) 100;
  Io_bus.write bus (base + 2) 1;
  ignore (Engine.run_until_idle (Machine.engine m));
  (match !frames with
   | [ f ] ->
     check int "length" 100 (Bytes.length f);
     check int "payload" 0x5A (Char.code (Bytes.get f 50))
   | _ -> Alcotest.fail "expected one frame");
  check int "counter" 1 (Nic.frames_sent nic);
  check bool "irq" true
    (Pic.requested (Machine.pic m) land (1 lsl Machine.Irq.nic) <> 0);
  check int "completion pending" 2 (Io_bus.read bus (base + 3) land 2);
  Io_bus.write bus (base + 4) 1;
  check int "completion consumed" 0 (Io_bus.read bus (base + 3) land 2)

(* In-flight frames complete in submission order, survive a checkpoint
   round trip with their wire times, and a ring reset abandons them
   without disturbing the frames sent after it. *)
let test_nic_inflight () =
  let m = fresh_machine () in
  let nic = Machine.nic m and bus = Machine.bus m and engine = Machine.engine m in
  let sizes = ref [] in
  Nic.set_on_frame nic (fun f -> sizes := Bytes.length f :: !sizes);
  let base = Machine.Ports.nic in
  let send len =
    Io_bus.write bus base 0x50000;
    Io_bus.write bus (base + 1) len;
    Io_bus.write bus (base + 2) 1
  in
  List.iter send [ 100; 200; 300 ];
  check int "three in flight" 3 (Nic.inflight_tx nic);
  let saved = Nic.capture nic in
  (match List.map (fun x -> x.Nic.xs_remaining) saved.Nic.n_inflight with
   | [ a; b; c ] -> check bool "wire order" true (a < b && b < c)
   | _ -> Alcotest.fail "expected three captured frames");
  Engine.run_until engine ~time:(Option.get (Engine.next_event_time engine));
  check Alcotest.(list int) "first frame first" [ 100 ] !sizes;
  check int "two left" 2 (Nic.inflight_tx nic);
  Nic.restore nic saved;
  check int "restored" 3 (Nic.inflight_tx nic);
  ignore (Engine.run_until_idle engine);
  check Alcotest.(list int) "restored frames in order" [ 100; 100; 200; 300 ] (List.rev !sizes);
  check int "bytes" 700 (Int64.to_int (Nic.bytes_sent nic));
  sizes := [];
  send 10;
  send 20;
  Io_bus.write bus (base + 2) 3;
  check int "reset empties the ring" 0 (Nic.inflight_tx nic);
  send 30;
  ignore (Engine.run_until_idle engine);
  check Alcotest.(list int) "only the frame after the reset" [ 30 ] !sizes;
  check int "nothing left" 0 (Nic.inflight_tx nic)

let test_nic_wire_rate () =
  (* Two back-to-back 1500-byte frames serialize sequentially at 1 Gbps. *)
  let m = fresh_machine () in
  let nic = Machine.nic m and bus = Machine.bus m in
  let times = ref [] in
  Nic.set_on_frame nic (fun _ -> times := Engine.now (Machine.engine m) :: !times);
  let base = Machine.Ports.nic in
  Io_bus.write bus base 0x50000;
  Io_bus.write bus (base + 1) 1500;
  Io_bus.write bus (base + 2) 1;
  Io_bus.write bus (base + 2) 1;
  ignore (Engine.run_until_idle (Machine.engine m));
  match List.rev !times with
  | [ t1; t2 ] ->
    let costs = Machine.costs m in
    let gap = Int64.to_float (Int64.sub t2 t1) /. costs.Costs.cpu_hz in
    let expected = 1500.0 *. 8.0 /. 1e9 in
    check bool "serialization gap" true (abs_float (gap -. expected) /. expected < 0.2)
  | _ -> Alcotest.fail "expected two frames"

let test_nic_clear_on_frame () =
  (* Detaching the consumer must stop the callback (and the per-frame copy
     it forces); re-attaching brings it back. *)
  let m = fresh_machine () in
  let nic = Machine.nic m and bus = Machine.bus m in
  let calls = ref 0 in
  Nic.set_on_frame nic (fun _ -> incr calls);
  Nic.clear_on_frame nic;
  let base = Machine.Ports.nic in
  let send () =
    Io_bus.write bus base 0x50000;
    Io_bus.write bus (base + 1) 100;
    Io_bus.write bus (base + 2) 1;
    ignore (Engine.run_until_idle (Machine.engine m))
  in
  send ();
  check int "detached consumer not called" 0 !calls;
  Nic.set_on_frame nic (fun _ -> incr calls);
  send ();
  check int "re-attached consumer called" 1 !calls;
  check int "both frames sent" 2 (Nic.frames_sent nic)

let test_nic_rx () =
  let m = fresh_machine () in
  let nic = Machine.nic m and bus = Machine.bus m and mem = Machine.mem m in
  let base = Machine.Ports.nic in
  Nic.inject_rx nic (Bytes.of_string "hello-frame");
  check int "rx waiting" 8 (Io_bus.read bus (base + 3) land 8);
  check int "rx length" 11 (Io_bus.read bus (base + 7));
  Io_bus.write bus (base + 6) 0x60000;
  Io_bus.write bus (base + 2) 2;
  check bool "frame in memory" true
    (Bytes.to_string (Phys_mem.read_bytes mem ~addr:0x60000 ~len:11)
    = "hello-frame")

let test_io_bus_unclaimed () =
  let bus = Io_bus.create () in
  check int "floating read" 0xFFFFFFFF (Io_bus.read bus 0x999);
  Io_bus.write bus 0x999 42 (* must not raise *)

let test_io_bus_conflict () =
  let bus = Io_bus.create () in
  Io_bus.register bus ~name:"a" ~base:0x10 ~count:4
    ~read:(fun _ -> 0)
    ~write:(fun _ _ -> ());
  Alcotest.check_raises "conflict"
    (Io_bus.Port_conflict { port = 0x12; owner = "a" })
    (fun () ->
      Io_bus.register bus ~name:"b" ~base:0x12 ~count:2
        ~read:(fun _ -> 0)
        ~write:(fun _ _ -> ()))

let test_io_permission_bitmap () =
  (* OUT at ring 3 to a non-permitted port must #GP; permitted goes through. *)
  let m = fresh_machine () in
  let hits = ref [] in
  Io_bus.register (Machine.bus m) ~name:"probe" ~base:0x500 ~count:2
    ~read:(fun _ -> 0)
    ~write:(fun off v -> hits := (off, v) :: !hits);
  Cpu.allow_port (Machine.cpu m) 0x501 true;
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0xA000);
  Asm.lstk a 0 1;
  Asm.movi a 3 (Asm.imm 0x7000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0x3000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.lbl "user");
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0);
  Asm.push a 3;
  Asm.iret a;
  Asm.label a "user";
  Asm.movi a 2 (Asm.imm 77);
  Asm.outi a (Asm.imm 0x501) 2 (* permitted: direct *);
  Asm.outi a (Asm.imm 0x500) 2 (* denied: #GP *);
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "gp";
  Asm.ld a 5 Isa.sp 0 (* error = port *);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate (Machine.mem m) ~table:0x2000 ~vector:Isa.vec_protection
    ~handler:(Asm.symbol p "gp") ~ring:0 ~dpl:0;
  ignore (Machine.run_until_halted m);
  check (Alcotest.list (Alcotest.pair int int)) "only permitted write landed"
    [ (1, 77) ] !hits;
  check int "gp error carries port" 0x500 (reg m 5)

(* -- CPU edge cases -- *)

let test_cpu_fetch_across_page_boundary () =
  (* Data directives can misalign code; a fetch straddling two pages must
     still decode (byte-at-a-time translation path). *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:(0x2000 - 4) () in
  Asm.space a 4 (* push the first instruction to 0x2000 - wait, origin
                   already offsets; place an instruction at 0xFFC *);
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  (* hand-place an instruction straddling 0x2FFC..0x3003 *)
  let mem = Machine.mem m in
  Phys_mem.load_bytes mem ~addr:0x2FFC (Isa.encode (Isa.Movi (1, 0x1234)));
  Phys_mem.load_bytes mem ~addr:0x3004 (Isa.encode Isa.Hlt);
  Vmm_hw.Cpu.set_pc (Machine.cpu m) 0x2FFC;
  ignore (Machine.run_until_halted m);
  check int "instruction decoded across boundary" 0x1234 (reg m 1)

let test_cpu_unaligned_u32_across_pages () =
  let m, _ =
    run_program (fun a ->
        Asm.movi a 1 (Asm.imm 0x2FFE) (* straddles 0x2FFF/0x3000 *);
        Asm.movi a 2 (Asm.imm 0xA1B2C3D4);
        Asm.st a 1 0 2;
        Asm.ld a 3 1 0;
        Asm.hlt a)
  in
  check int "unaligned store/load across pages" 0xA1B2C3D4 (reg m 3)

let test_cpu_copy_across_pages () =
  let m = fresh_machine () in
  let mem = Machine.mem m in
  for i = 0 to 9999 do
    Phys_mem.write_u8 mem (0x2800 + i) ((i * 13) land 0xFF)
  done;
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm 0x8800) (* destination also crosses pages *);
  Asm.movi a 2 (Asm.imm 0x2800);
  Asm.movi a 3 (Asm.imm 10000);
  Asm.copy a 1 2 3;
  Asm.hlt a;
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  ignore (Machine.run_until_halted m);
  check bool "multi-page copy" true
    (Phys_mem.read_bytes mem ~addr:0x2800 ~len:10000
    = Phys_mem.read_bytes mem ~addr:0x8800 ~len:10000)

let test_cpu_irq_delivery_fault_panics () =
  (* A timer interrupt arrives with sp at 0, so pushing its frame leaves
     memory.  That has nowhere to go: the CPU panics, as it does when a
     fault's frame cannot be pushed, rather than letting the bus error
     out of the run loop. *)
  let m = fresh_machine () in
  let mem = Machine.mem m and cpu = Machine.cpu m in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0);
  Asm.sti a;
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  for vector = 0 to 63 do
    write_gate mem ~table:0x2000 ~vector ~handler:0x3000 ~ring:0 ~dpl:0
  done;
  Cpu.set_iht_base cpu 0x2000;
  let bus = Machine.bus m and pit = Machine.Ports.pit in
  Io_bus.write bus pit 8;
  Io_bus.write bus (pit + 1) 0;
  Io_bus.write bus (pit + 2) 1 (* periodic *);
  match Machine.run_for m ~cycles:30_000L with
  | () -> Alcotest.fail "the interrupt was never delivered"
  | exception Cpu.Panic msg ->
    check bool ("double fault: " ^ msg) true
      (String.starts_with ~prefix:"double fault delivering vector" msg)

let test_cpu_iret_to_ring3_with_pending_step () =
  (* IRET restoring a flags word with TF set must trap after the first
     user instruction. *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0xA000);
  Asm.lstk a 0 1;
  Asm.movi a 3 (Asm.imm 0x7000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm (0x3000 lor 0x100)) (* ring 3, TF *);
  Asm.push a 3;
  Asm.movi a 3 (Asm.lbl "user");
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0);
  Asm.push a 3;
  Asm.iret a;
  Asm.label a "user";
  Asm.movi a 5 (Asm.imm 1);
  Asm.movi a 5 (Asm.imm 2);
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "step_handler";
  Asm.mov a 6 5 (* captures r5 at trap time *);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  let gate_flags = 1 in
  Phys_mem.write_u32 (Machine.mem m) (0x2000 + (8 * Isa.vec_debug_step))
    (Asm.symbol p "step_handler");
  Phys_mem.write_u32 (Machine.mem m)
    (0x2000 + (8 * Isa.vec_debug_step) + 4)
    gate_flags;
  ignore (Machine.run_until_halted m);
  check int "trapped after exactly one instruction" 1 (reg m 6)

(* -- Cross-checking properties -- *)

let prop_mmu_probe_agrees_with_translate =
  (* For random guest-style mappings, a successful translate and probe
     must agree on the physical frame; a probe miss must mean translate
     faults. *)
  QCheck.Test.make ~name:"mmu probe agrees with translate" ~count:100
    QCheck.(
      pair (int_bound 255)
        (list_of_size (Gen.int_range 1 32) (pair (int_bound 255) (int_bound 255))))
    (fun (probe_page, mappings) ->
      let mem = Phys_mem.create ~size:(4 * 1024 * 1024) in
      let mmu = Mmu.create Costs.default in
      let pd = 0x200000 and pt = 0x201000 in
      Phys_mem.write_u32 mem pd (Mmu.make_pte ~frame:pt ~writable:true ~user:true);
      List.iter
        (fun (vpage, ppage) ->
          Phys_mem.write_u32 mem
            (pt + (4 * (vpage land 0xFF)))
            (Mmu.make_pte ~frame:((ppage land 0xFF) * 4096) ~writable:true ~user:true))
        mappings;
      let vaddr = (probe_page land 0xFF) * 4096 in
      let probe = Mmu.probe mem ~ptb:pd vaddr in
      let translate =
        try Some (Mmu.translate mmu mem ~ptb:pd ~cpl:3 Mmu.Read vaddr)
        with Mmu.Page_fault _ -> None
      in
      match (probe, translate) with
      | Some pte, Some paddr -> Mmu.frame_of pte = paddr
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let prop_disassembly_roundtrip =
  (* Assembling a random instruction list and disassembling from memory
     yields the same instruction sequence. *)
  QCheck.Test.make ~name:"assemble/disassemble roundtrip" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 64) instr_arbitrary)
    (fun instrs ->
      let a = Asm.create ~origin:0x2000 () in
      List.iteri
        (fun i instr ->
          ignore i;
          Asm.instr a instr)
        instrs;
      let p = Asm.assemble a in
      let mem = Phys_mem.create ~size:(64 * 1024) in
      Asm.load p mem;
      List.for_all
        (fun (i, instr) -> Isa.read mem (0x2000 + (i * Isa.width)) = instr)
        (List.mapi (fun i instr -> (i, instr)) instrs))

let test_machine_determinism () =
  (* Two machines running the same program for the same simulated time
     must agree on every observable. *)
  let run () =
    let m = fresh_machine () in
    let a = Asm.create ~origin:0x1000 () in
    Asm.movi a Isa.sp (Asm.imm 0x8000);
    Asm.movi a 1 (Asm.imm 0);
    Asm.label a "loop";
    Asm.addi a 1 1 (Asm.imm 1);
    Asm.movi a 2 (Asm.imm 0x30000);
    Asm.st a 2 0 1;
    Asm.jmp a (Asm.lbl "loop");
    Machine.boot m (Asm.assemble a) ~entry:0x1000;
    Machine.run_seconds m 0.001;
    ( Cpu.read_reg (Machine.cpu m) 1,
      Cpu.instructions_retired (Machine.cpu m),
      Vmm_sim.Stats.busy_cycles (Machine.load m) )
  in
  let a = run () and b = run () in
  check bool "identical observables" true (a = b)

(* -- Load accounting -- *)

let test_machine_idle_vs_busy () =
  (* A program that halts immediately: almost all time is idle. *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.hlt a;
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  (* a far-future event so the idle skip has a target *)
  ignore
    (Engine.at (Machine.engine m)
       ~time:(Costs.cycles_of_seconds (Machine.costs m) 0.01)
       (fun () -> ()));
  let t0 = Machine.now m and b0 = Vmm_sim.Stats.busy_cycles (Machine.load m) in
  Machine.run_seconds m 0.01;
  let u = Machine.utilization m ~since:t0 ~since_busy:b0 in
  check bool "mostly idle" true (u < 0.001)

let test_machine_busy_loop () =
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.label a "loop";
  Asm.jmp a (Asm.lbl "loop");
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  let t0 = Machine.now m and b0 = Vmm_sim.Stats.busy_cycles (Machine.load m) in
  Machine.run_for m ~cycles:100_000L;
  let u = Machine.utilization m ~since:t0 ~since_busy:b0 in
  check bool "fully busy" true (u > 0.99)

(* -- Decoded-instruction cache -- *)

let test_icache_self_modifying () =
  (* The guest overwrites an instruction it already executed; the refetch
     must observe the store and re-decode, not replay the cached decode. *)
  let enc = Isa.encode (Isa.Movi (1, 99)) in
  let word off =
    Char.code (Bytes.get enc off)
    lor (Char.code (Bytes.get enc (off + 1)) lsl 8)
    lor (Char.code (Bytes.get enc (off + 2)) lsl 16)
    lor (Char.code (Bytes.get enc (off + 3)) lsl 24)
  in
  let m, _ =
    run_program (fun a ->
        (* a few store-free iterations first, so some refetches hit *)
        Asm.movi a 3 (Asm.imm 0);
        Asm.label a "warm";
        Asm.addi a 3 3 (Asm.imm 1);
        Asm.cmpi a 3 (Asm.imm 3);
        Asm.jnz a (Asm.lbl "warm");
        Asm.movi a 5 (Asm.imm 0);
        Asm.label a "patchme";
        Asm.movi a 1 (Asm.imm 1);
        Asm.addi a 5 5 (Asm.imm 1);
        Asm.cmpi a 5 (Asm.imm 2);
        Asm.jz a (Asm.lbl "done");
        Asm.movi a 6 (Asm.imm (word 0));
        Asm.movi a 7 (Asm.imm (word 4));
        Asm.movi a 8 (Asm.lbl "patchme");
        Asm.st a 8 0 6;
        Asm.st a 8 4 7;
        Asm.jmp a (Asm.lbl "patchme");
        Asm.label a "done";
        Asm.hlt a)
  in
  let cpu = Machine.cpu m in
  check int "patched instruction executed" 99 (reg m 1);
  check bool "invalidation counted" true (Cpu.icache_invalidations cpu >= 1);
  check bool "straight-line refetches hit" true (Cpu.icache_hits cpu > 0)

let test_icache_breakpoint_patch () =
  (* Host-side text patching — a BRK planted and removed by a debugger
     that writes guest text — must invalidate the cached decode both
     ways. *)
  let m = fresh_machine () in
  let mem = Machine.mem m and cpu = Machine.cpu m in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 2 (Asm.imm 0);
  Asm.label a "loop";
  Asm.addi a 2 2 (Asm.imm 1);
  Asm.jmp a (Asm.lbl "loop");
  Asm.label a "handler";
  Asm.movi a 9 (Asm.imm 1);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate mem ~table:0x2000 ~vector:Isa.vec_breakpoint
    ~handler:(Asm.symbol p "handler") ~ring:0 ~dpl:0;
  ignore (Machine.run_steps m 50) (* warm the cache on the loop body *);
  let site = Asm.symbol p "loop" in
  let saved = Phys_mem.read_bytes mem ~addr:site ~len:Isa.width in
  let inval0 = Cpu.icache_invalidations cpu in
  Isa.write mem site Isa.Brk;
  check bool "halted in handler" true (Machine.run_until_halted ~limit:100 m);
  check int "breakpoint handler ran" 1 (reg m 9);
  check bool "plant invalidated cached decode" true
    (Cpu.icache_invalidations cpu > inval0);
  let count_at_bp = reg m 2 in
  Phys_mem.load_bytes mem ~addr:site saved;
  Cpu.set_pc cpu site;
  Cpu.set_halted cpu false;
  ignore (Machine.run_steps m 10);
  check bool "loop resumed after removal" true (reg m 2 > count_at_bp)

let test_icache_dma_invalidation () =
  (* SCSI DMA lands byte-identical data on top of executing code: the
     generation bump must force a re-decode even though nothing changed,
     and the program must keep running unperturbed. *)
  let m = fresh_machine () in
  let cpu = Machine.cpu m and bus = Machine.bus m in
  let base = Machine.Ports.scsi in
  let a = Asm.create ~origin:0x1000 () in
  Asm.label a "loop";
  Asm.movi a 1 (Asm.imm 1);
  Asm.jmp a (Asm.lbl "loop");
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  ignore (Machine.run_steps m 40) (* warm the cache *);
  let issue cmd =
    Io_bus.write bus base 0 (* target *);
    Io_bus.write bus (base + 1) 7 (* lba *);
    Io_bus.write bus (base + 2) 512 (* bytes *);
    Io_bus.write bus (base + 3) 0x1000 (* dma over the loop's text *);
    Io_bus.write bus (base + 4) cmd;
    ignore (Engine.run_until_idle (Machine.engine m));
    Io_bus.write bus (base + 6) 3 (* ack *)
  in
  issue 2 (* write: latch the code bytes onto the disk *);
  let inval0 = Cpu.icache_invalidations cpu in
  issue 1 (* read: DMA the same bytes back over the cached text *);
  ignore (Machine.run_steps m 20);
  check bool "dma invalidated cached text" true
    (Cpu.icache_invalidations cpu > inval0);
  check int "program unperturbed" 1 (reg m 1)

let test_icache_set_ptb_remap () =
  (* Same virtual pc, different physical frame after a PTB reload: the
     physically-tagged cache must miss and decode the new frame's bytes. *)
  let m = fresh_machine () in
  let mem = Machine.mem m and cpu = Machine.cpu m in
  build_identity_tables mem ~pd:0x40000 ~pt:0x41000 ~mbytes:1 ~user:false;
  let vaddr = 0x8000 in
  let pte_addr = 0x41000 + (4 * (vaddr / 4096)) in
  let place frame value =
    Phys_mem.write_u32 mem pte_addr
      (Mmu.make_pte ~frame ~writable:true ~user:false);
    Isa.write mem frame (Isa.Movi (1, value));
    Isa.write mem (frame + Isa.width) (Isa.Jmp vaddr)
  in
  place 0x10000 11;
  Cpu.set_ptb cpu 0x40000;
  Cpu.set_pc cpu vaddr;
  ignore (Machine.run_steps m 20);
  check int "old frame's code" 11 (reg m 1);
  let misses0 = Cpu.icache_misses cpu in
  place 0x11000 22;
  Cpu.set_ptb cpu 0x40000 (* the guest's lptb remap idiom *);
  ignore (Machine.run_steps m 20);
  check int "new frame's code" 22 (reg m 1);
  check bool "remap re-decoded" true (Cpu.icache_misses cpu > misses0)

let test_fetch_beyond_ram_machine_check () =
  (* A jump past the end of physical memory (identity map: paging off) must
     deliver a machine check, exactly as before the decoded-instruction
     cache — the icache generation probe must never read out-of-range
     granules. *)
  let m = fresh_machine () in
  let mem = Machine.mem m in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 9 (Asm.imm 0);
  Asm.jmp a (Asm.imm 0x400000) (* 4 MiB: past the machine's 2 MiB of RAM *);
  Asm.label a "handler";
  Asm.movi a 9 (Asm.imm 1);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate mem ~table:0x2000 ~vector:Isa.vec_machine_check
    ~handler:(Asm.symbol p "handler") ~ring:0 ~dpl:0;
  check bool "halted in handler" true (Machine.run_until_halted ~limit:100 m);
  check int "machine check delivered" 1 (reg m 9)

(* -- Block translator (threaded-code JIT) -- *)

(* The translator only engages on the batched dispatch path
   ([Machine.run_until]/[run_for]/[run_seconds] -> [Cpu.run_batch]);
   [run_steps] and [run_until_halted] deliberately stay per-instruction.
   Every test here therefore drives the machine by cycle budget. *)

let run_batched ?(jit = true) ~cycles build =
  let m = fresh_machine () in
  Cpu.set_jit_enabled (Machine.cpu m) jit;
  let a = Asm.create ~origin:0x1000 () in
  build a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  Machine.run_for m ~cycles;
  (m, p)

let test_jit_compiles_and_chains () =
  let m, _ =
    run_batched ~cycles:100_000L (fun a ->
        Asm.movi a Isa.sp (Asm.imm 0x8000);
        Asm.movi a 2 (Asm.imm 0);
        Asm.label a "loop";
        Asm.call a (Asm.lbl "fn");
        Asm.addi a 2 2 (Asm.imm 1);
        Asm.jmp a (Asm.lbl "loop");
        Asm.label a "fn";
        Asm.addi a 3 3 (Asm.imm 1);
        Asm.ret a)
  in
  let cpu = Machine.cpu m in
  check bool "progress made" true (reg m 2 > 0);
  check bool "blocks compiled" true (Cpu.blocks_compiled cpu > 0);
  check bool "block cache hits" true (Cpu.block_hits cpu > 0);
  check bool "superblock chains followed" true
    (Cpu.block_chain_follows cpu > 0)

(* A workload touching every compiled op class: ALU, memory, stack,
   flags, a multiply, and a conditional back-edge. *)
let jit_workload a =
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
  Asm.cmpi a 1 (Asm.imm 10_000_000);
  Asm.jnz a (Asm.lbl "loop");
  Asm.hlt a

(* Runs [run ~jit] with the translator on and off and checks that every
   simulated observable agrees: registers, pc, flags, all of memory, the
   engine clock, the retirement count, busy cycles by category and TLB
   misses.  Returns the translator-on machine for further checks. *)
let check_jit_on_off name (run : jit:bool -> Machine.t) =
  let on = run ~jit:true and off = run ~jit:false in
  let obs m =
    let cpu = Machine.cpu m and mem = Machine.mem m in
    ( List.init Isa.num_regs (Cpu.read_reg cpu),
      (Cpu.pc cpu, Cpu.flags_word cpu),
      Digest.to_hex
        (Digest.bytes (Phys_mem.read_bytes mem ~addr:0 ~len:(Phys_mem.size mem))),
      (Machine.now m, Cpu.instructions_retired cpu),
      Vmm_sim.Stats.busy_by_category (Machine.load m),
      Mmu.tlb_misses (Cpu.mmu cpu) )
  in
  let regs1, pcf1, mem1, (now1, ret1), busy1, miss1 = obs on in
  let regs0, pcf0, mem0, (now0, ret0), busy0, miss0 = obs off in
  let l what = name ^ ": " ^ what in
  check (Alcotest.list int) (l "registers") regs0 regs1;
  check (Alcotest.pair int int) (l "pc, flags") pcf0 pcf1;
  check Alcotest.string (l "memory") mem0 mem1;
  check Alcotest.int64 (l "engine clock") now0 now1;
  check Alcotest.int64 (l "retired") ret0 ret1;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int64))
    (l "busy by category") busy0 busy1;
  check Alcotest.int64 (l "tlb misses") miss0 miss1;
  check bool (l "translator engaged") true
    (Cpu.blocks_compiled (Machine.cpu on) > 0);
  on

let test_jit_on_off_identical () =
  ignore
    (check_jit_on_off "workload" (fun ~jit ->
         fst (run_batched ~jit ~cycles:200_000L jit_workload)))

let test_jit_self_modifying () =
  (* The guest patches an instruction inside a block it already
     executed: the store lands on compiled text, the generation check
     must invalidate the block, and the re-compiled block must execute
     the new bytes. *)
  let enc = Isa.encode (Isa.Movi (1, 99)) in
  let word off =
    Char.code (Bytes.get enc off)
    lor (Char.code (Bytes.get enc (off + 1)) lsl 8)
    lor (Char.code (Bytes.get enc (off + 2)) lsl 16)
    lor (Char.code (Bytes.get enc (off + 3)) lsl 24)
  in
  let m, _ =
    run_batched ~cycles:50_000L (fun a ->
        Asm.movi a 5 (Asm.imm 0);
        (* enter via a jump so [patchme] heads its own block — the loop
           back-edge then re-dispatches the patched block at the same
           key and must see the invalidation *)
        Asm.jmp a (Asm.lbl "patchme");
        Asm.label a "patchme";
        Asm.movi a 1 (Asm.imm 1);
        Asm.addi a 5 5 (Asm.imm 1);
        Asm.cmpi a 5 (Asm.imm 2);
        Asm.jz a (Asm.lbl "done");
        Asm.movi a 6 (Asm.imm (word 0));
        Asm.movi a 7 (Asm.imm (word 4));
        Asm.movi a 8 (Asm.lbl "patchme");
        Asm.st a 8 0 6;
        Asm.st a 8 4 7;
        Asm.jmp a (Asm.lbl "patchme");
        Asm.label a "done";
        Asm.hlt a)
  in
  let cpu = Machine.cpu m in
  check bool "halted at done" true (Cpu.halted cpu);
  check int "patched instruction executed" 99 (reg m 1);
  check bool "compiled text invalidated" true
    (Cpu.block_invalidations cpu >= 1)

let test_jit_dma_invalidation () =
  (* Device DMA over compiled text: the block must re-validate against
     the bumped write generations and recompile, even though the DMA'd
     bytes are identical. *)
  let m = fresh_machine () in
  let cpu = Machine.cpu m and bus = Machine.bus m in
  let base = Machine.Ports.scsi in
  let a = Asm.create ~origin:0x1000 () in
  Asm.label a "loop";
  Asm.movi a 1 (Asm.imm 1);
  Asm.jmp a (Asm.lbl "loop");
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  Machine.run_for m ~cycles:20_000L (* compile + warm the loop block *);
  check bool "loop block compiled" true (Cpu.blocks_compiled cpu > 0);
  let issue cmd =
    Io_bus.write bus base 0 (* target *);
    Io_bus.write bus (base + 1) 7 (* lba *);
    Io_bus.write bus (base + 2) 512 (* bytes *);
    Io_bus.write bus (base + 3) 0x1000 (* dma over the loop's text *);
    Io_bus.write bus (base + 4) cmd;
    ignore (Engine.run_until_idle (Machine.engine m));
    Io_bus.write bus (base + 6) 3 (* ack *)
  in
  issue 2 (* write: latch the code bytes onto the disk *);
  let inval0 = Cpu.block_invalidations cpu in
  issue 1 (* read: DMA the same bytes back over the compiled text *);
  Machine.run_for m ~cycles:20_000L;
  check bool "dma invalidated compiled block" true
    (Cpu.block_invalidations cpu > inval0);
  check int "program unperturbed" 1 (reg m 1)

let test_jit_breakpoint_patch () =
  (* A BRK planted into an already-compiled block (a text-patching
     debugger's idiom) must invalidate the block and fire on the next
     pass — never stay buried under stale threaded code. *)
  let m = fresh_machine () in
  let mem = Machine.mem m and cpu = Machine.cpu m in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 2 (Asm.imm 0);
  Asm.label a "loop";
  Asm.addi a 2 2 (Asm.imm 1);
  Asm.jmp a (Asm.lbl "loop");
  Asm.label a "handler";
  Asm.movi a 9 (Asm.imm 1);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate mem ~table:0x2000 ~vector:Isa.vec_breakpoint
    ~handler:(Asm.symbol p "handler") ~ring:0 ~dpl:0;
  Machine.run_for m ~cycles:20_000L (* compile + warm the loop block *);
  check bool "loop block compiled" true (Cpu.blocks_compiled cpu > 0);
  check bool "not yet trapped" true (reg m 9 = 0);
  let inval0 = Cpu.block_invalidations cpu in
  Isa.write mem (Asm.symbol p "loop") Isa.Brk;
  Machine.run_for m ~cycles:20_000L;
  check int "breakpoint handler ran" 1 (reg m 9);
  check bool "halted in handler" true (Cpu.halted cpu);
  check bool "plant invalidated compiled text" true
    (Cpu.block_invalidations cpu > inval0);
  check bool "trap fell back to the interpreter" true
    (Cpu.block_fallbacks cpu > 0)

let test_jit_interpreter_only_head () =
  (* A pc on an interpreter-only instruction cannot head a block.  The
     translator must refuse it every lap without compiling anything and
     without building a decode buffer, then fall back to one interpreted
     step. *)
  let m = fresh_machine () in
  let cpu = Machine.cpu m in
  Cpu.set_jit_enabled cpu true;
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 2 (Asm.imm 0);
  Asm.label a "loop";
  Asm.cli a (* interpreter-only head *);
  Asm.addi a 2 2 (Asm.imm 1);
  Asm.jmp a (Asm.lbl "loop");
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  Machine.run_for m ~cycles:20_000L (* compile the addi/jmp block *);
  let compiled = Cpu.blocks_compiled cpu in
  let fallbacks = Cpu.block_fallbacks cpu and laps = reg m 2 in
  let w0 = Gc.minor_words () in
  Machine.run_for m ~cycles:200_000L;
  let words = Gc.minor_words () -. w0 in
  let heads = Cpu.block_fallbacks cpu - fallbacks in
  check int "refused heads compile nothing" compiled (Cpu.blocks_compiled cpu);
  check bool "every lap met the cli head" true
    (heads > 1000 && abs (heads - (reg m 2 - laps)) <= 1);
  (* Measured at 0 words a lap.  A refusal that builds the decode
     buffer adds about 65. *)
  let per_head = words /. float_of_int heads in
  check bool
    (Printf.sprintf "%.1f minor words per lap <= 10" per_head)
    true (per_head <= 10.0)

(* The sim-speed compute loop on bare metal with the translator off:
   every instruction is fetched from the decoded-instruction cache and
   run by [step] as a one-instruction block, which must not allocate
   (measured 0.0000 words per instruction; the ceiling is ROADMAP's
   target of 2). *)
let test_interpreter_alloc () =
  let m = fresh_machine () in
  let cpu = Machine.cpu m in
  Cpu.set_jit_enabled cpu false;
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
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  Machine.run_for m ~cycles:100_000L;
  let i0 = Cpu.instructions_retired cpu in
  let w0 = Gc.minor_words () in
  Machine.run_for m ~cycles:2_000_000L;
  let words = Gc.minor_words () -. w0 in
  let instrs = Int64.to_float (Int64.sub (Cpu.instructions_retired cpu) i0) in
  check int "no block compiled" 0 (Cpu.blocks_compiled cpu);
  let per_instr = words /. instrs in
  check bool
    (Printf.sprintf "%.3f minor words per instruction <= 2" per_instr)
    true (per_instr <= 2.0)

let test_jit_set_ptb_remap () =
  (* Same virtual pc, different physical frame after a PTB reload: the
     physically-keyed block cache must compile and run the new frame's
     code, not replay the old frame's block. *)
  let m = fresh_machine () in
  let mem = Machine.mem m and cpu = Machine.cpu m in
  build_identity_tables mem ~pd:0x40000 ~pt:0x41000 ~mbytes:1 ~user:false;
  let vaddr = 0x8000 in
  let pte_addr = 0x41000 + (4 * (vaddr / 4096)) in
  let place frame value =
    Phys_mem.write_u32 mem pte_addr
      (Mmu.make_pte ~frame ~writable:true ~user:false);
    Isa.write mem frame (Isa.Movi (1, value));
    Isa.write mem (frame + Isa.width) (Isa.Jmp vaddr)
  in
  place 0x10000 11;
  Cpu.set_ptb cpu 0x40000;
  Cpu.set_pc cpu vaddr;
  Cpu.set_halted cpu false;
  Machine.run_for m ~cycles:20_000L;
  check int "old frame's code" 11 (reg m 1);
  check bool "blocks compiled" true (Cpu.blocks_compiled cpu > 0);
  place 0x11000 22;
  Cpu.set_ptb cpu 0x40000 (* the guest's lptb remap idiom *);
  Machine.run_for m ~cycles:20_000L;
  check int "new frame's code" 22 (reg m 1)

(* -- COPY and CSUM as compiled ops -- *)

let test_jit_copy_over_own_block () =
  (* Each lap a COPY writes a fresh instruction over [site], later in its
     own block, and a second COPY puts the stale one back.  The compiled
     chain must stop at the COPY and run the fresh bytes.  The budget
     ends mid-loop, so the chain must also stop on the same boundary. *)
  let m =
    check_jit_on_off "copy over own block" (fun ~jit ->
        fst
          (run_batched ~jit ~cycles:100_000L (fun a ->
               Asm.movi a 3 (Asm.imm Isa.width);
               Asm.label a "loop";
               Asm.movi a 1 (Asm.lbl "site");
               Asm.movi a 2 (Asm.lbl "fresh");
               Asm.copy a 1 2 3;
               Asm.label a "site";
               Asm.movi a 5 (Asm.imm 1);
               Asm.add a 7 7 5;
               Asm.movi a 2 (Asm.lbl "stale");
               Asm.copy a 1 2 3;
               Asm.addi a 8 8 (Asm.imm 1);
               Asm.jmp a (Asm.lbl "loop");
               Asm.label a "fresh";
               Asm.movi a 5 (Asm.imm 99);
               Asm.label a "stale";
               Asm.movi a 5 (Asm.imm 1))))
  in
  check bool "looped" true (reg m 8 > 100);
  check int "fresh bytes ran every lap" (99 * reg m 8) (reg m 7);
  (* Nothing in the loop takes the interpreter: both COPYs compiled. *)
  check int "no COPY fell back" 0 (Cpu.block_fallbacks (Machine.cpu m))

let test_jit_copy_csum_fault_lw () =
  (* Under the LW-VMM every guest page is filled into the shadow tables
     on first touch.  The COPY's destination and the CSUM's range start
     on touched pages and run into untouched ones, so both fault on
     their second page after finishing the first chunk; the monitor
     fills the page and the instruction restarts from the top. *)
  let dst = 0x11000 - 20 and sum_at = 0x13000 - 30 in
  let mon_stats = ref [] in
  let m =
    check_jit_on_off "copy/csum fault under lw-vmm" (fun ~jit ->
        let m = Machine.create () in
        let mon = Core.Monitor.install m in
        let a = Asm.create ~origin:0x1000 () in
        Asm.movi a 1 (Asm.imm 0x10000);
        Asm.st a 1 0 1;
        Asm.movi a 1 (Asm.imm 0x12000);
        Asm.ld a 4 1 0;
        Asm.movi a 1 (Asm.imm dst);
        Asm.movi a 2 (Asm.imm 0x1000);
        Asm.movi a 3 (Asm.imm 100);
        Asm.copy a 1 2 3;
        Asm.movi a 6 (Asm.imm sum_at);
        Asm.movi a 3 (Asm.imm 200);
        Asm.csum a 9 6 3;
        Asm.hlt a;
        Core.Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
        Cpu.set_jit_enabled (Machine.cpu m) jit;
        Machine.run_for m ~cycles:200_000L;
        mon_stats := Core.Monitor.stats mon :: !mon_stats;
        m)
  in
  (match !mon_stats with
   | [ off; on ] ->
     check bool "same monitor statistics" true (on = off);
     check bool "second pages filled on fault" true
       (on.Core.Monitor.shadow_fills >= 5)
   | _ -> Alcotest.fail "expected two runs");
  let mem = Machine.mem m in
  check bool "copied" true
    (Phys_mem.read_bytes mem ~addr:dst ~len:100
    = Phys_mem.read_bytes mem ~addr:0x1000 ~len:100);
  check int "checksum" (Phys_mem.checksum mem ~addr:sum_at ~len:200) (reg m 9)

let test_copy_csum_straddling_pc () =
  (* A COPY, a CSUM and a COPY over its own bytes, each fetched across a
     page boundary, so each runs uncached with an empty text range.
     Three laps; the end state is pinned to what the interpreter gave
     before instructions became compiled ops. *)
  let m =
    check_jit_on_off "copy/csum at a straddling pc" (fun ~jit ->
        let m, p =
          run_batched ~jit ~cycles:100_000L (fun a ->
              Asm.movi a 1 (Asm.imm 0x8000);
              Asm.movi a 2 (Asm.imm 0x1000);
              Asm.movi a 3 (Asm.imm 64);
              Asm.movi a 4 (Asm.lbl "self");
              Asm.movi a 5 (Asm.lbl "image");
              Asm.movi a 6 (Asm.imm Isa.width);
              Asm.label a "lap";
              Asm.jmp a (Asm.lbl "copy");
              Asm.space a (0x1FFC - 0x1038);
              Asm.label a "copy";
              Asm.copy a 1 2 3;
              Asm.jmp a (Asm.lbl "sum");
              Asm.space a (0x2FFC - 0x200C);
              Asm.label a "sum";
              Asm.csum a 9 1 3;
              Asm.jmp a (Asm.lbl "self");
              Asm.space a (0x3FFC - 0x300C);
              Asm.label a "self";
              Asm.copy a 4 5 6;
              Asm.addi a 8 8 (Asm.imm 1);
              Asm.cmpi a 8 (Asm.imm 3);
              Asm.jnz a (Asm.lbl "lap");
              Asm.hlt a;
              Asm.label a "image";
              Asm.copy a 4 5 6)
        in
        List.iter
          (fun (l, at) -> check int (l ^ " straddles") at (Asm.symbol p l))
          [ ("copy", 0x1FFC); ("sum", 0x2FFC); ("self", 0x3FFC) ];
        m)
  in
  let cpu = Machine.cpu m in
  check (Alcotest.list int) "registers"
    [ 0; 0x8000; 0x1000; 64; 0x3FFC; 0x4024; Isa.width; 0; 3; 0x7F7A;
      0; 0; 0; 0; 0; 0 ]
    (List.init Isa.num_regs (Cpu.read_reg cpu));
  check int "halted after the loop" 0x4024 (Cpu.pc cpu);
  check Alcotest.int64 "retired" 34L (Cpu.instructions_retired cpu);
  check Alcotest.int64 "busy cycles" 2614L
    (Vmm_sim.Stats.busy_cycles (Machine.load m));
  check bool "copied" true
    (Phys_mem.read_bytes (Machine.mem m) ~addr:0x8000 ~len:64
    = Phys_mem.read_bytes (Machine.mem m) ~addr:0x1000 ~len:64)

(* Paging on.  The guest first points its code page's PTE at another
   frame, 0x3000, whose copy of the code differs in one instruction; the
   stale TLB entry keeps fetches on 0x1000.  A COPY from [src] to [dst]
   then touches virtual page 0x101, which shares the code page's
   direct-mapped TLB slot, so the interpreter's next fetch uses the new
   PTE and runs the instruction from 0x3000.  The compiled chain must
   stop after the COPY rather than run on from the stale block. *)
let check_copy_code_tlb name ~dst ~src =
  let program () =
    let a = Asm.create ~origin:0x1000 () in
    Asm.movi a 1 (Asm.imm 0x40000);
    Asm.lptb a 1;
    Asm.movi a 1 (Asm.imm (0x41000 + 4));
    Asm.movi a 2
      (Asm.imm (Mmu.make_pte ~frame:0x3000 ~writable:true ~user:false));
    Asm.st a 1 0 2;
    Asm.movi a 1 (Asm.imm dst);
    Asm.movi a 2 (Asm.imm src);
    Asm.movi a 3 (Asm.imm 64);
    Asm.copy a 1 2 3;
    Asm.label a "after";
    Asm.movi a 6 (Asm.imm 1);
    Asm.hlt a;
    Asm.assemble a
  in
  let m =
    check_jit_on_off name (fun ~jit ->
        let m = fresh_machine () in
        let mem = Machine.mem m in
        Cpu.set_jit_enabled (Machine.cpu m) jit;
        build_identity_tables mem ~pd:0x40000 ~pt:0x41000 ~mbytes:2
          ~user:false;
        let p = program () in
        Machine.boot m p ~entry:0x1000;
        Phys_mem.load_bytes mem ~addr:0x3000 p.Asm.code;
        Isa.write mem (0x3000 + Asm.symbol p "after" - 0x1000) (Isa.Movi (6, 2));
        Machine.run_for m ~cycles:10_000L;
        m)
  in
  check int (name ^ ": ran the remapped frame's instruction") 2 (reg m 6)

(* The read of page 0x101 evicts the code page's entry for good. *)
let test_jit_copy_evicts_code_tlb () =
  check_copy_code_tlb "copy evicts code tlb" ~dst:0x20000 ~src:0x101000

(* Each chunk translates its source, evicting the code page's entry, then
   its destination on the code page (past the program's text), which
   walks the entry back in from the new PTE: the slot holds the code page
   again, now mapped to 0x3000. *)
let test_jit_copy_refills_code_tlb () =
  check_copy_code_tlb "copy refills code tlb" ~dst:0x1800 ~src:0x101000

let test_jit_csum_odd_first_chunk () =
  (* The range starts 5 bytes before a page end, so the second chunk
     begins at an odd global index. *)
  let at = 0x10FFB and len = 1458 in
  let m =
    check_jit_on_off "csum odd first chunk" (fun ~jit ->
        let m = fresh_machine () in
        let mem = Machine.mem m in
        for i = 0 to len - 1 do
          Phys_mem.write_u8 mem (at + i) ((i * 131) lxor (i lsr 3))
        done;
        Cpu.set_jit_enabled (Machine.cpu m) jit;
        let a = Asm.create ~origin:0x1000 () in
        Asm.movi a 1 (Asm.imm at);
        Asm.movi a 3 (Asm.imm len);
        Asm.label a "loop";
        Asm.csum a 4 1 3;
        Asm.add a 5 5 4;
        Asm.addi a 8 8 (Asm.imm 1);
        Asm.jmp a (Asm.lbl "loop");
        Machine.boot m (Asm.assemble a) ~entry:0x1000;
        (* the budget ends mid-loop: the chain must stop where the
           interpreter does *)
        Machine.run_for m ~cycles:500_000L;
        m)
  in
  check int "checksum" (Phys_mem.checksum (Machine.mem m) ~addr:at ~len) (reg m 4);
  check bool "looped" true (reg m 8 > 10);
  check int "every lap" (reg m 8 * reg m 4) (reg m 5)

let test_jit_copy_forward_chunks () =
  (* docs/ISA.md: COPY is a forward copy in page chunks, and only within
     a chunk do overlapping ranges behave like memmove.  With dst = src +
     1 across a page end, the byte moved into the second page was
     already overwritten by the first chunk, so from 0x11000 on the
     result differs from memmove. *)
  let src = 0x10FF6 in
  let m =
    check_jit_on_off "copy forward chunks" (fun ~jit ->
        let m = fresh_machine () in
        let mem = Machine.mem m in
        for i = 0 to 20 do
          Phys_mem.write_u8 mem (src + i) i
        done;
        Cpu.set_jit_enabled (Machine.cpu m) jit;
        let a = Asm.create ~origin:0x1000 () in
        Asm.movi a 1 (Asm.imm (src + 1));
        Asm.movi a 2 (Asm.imm src);
        Asm.movi a 3 (Asm.imm 20);
        Asm.copy a 1 2 3;
        Asm.hlt a;
        Machine.boot m (Asm.assemble a) ~entry:0x1000;
        Machine.run_for m ~cycles:10_000L;
        m)
  in
  let got =
    List.init 21 (fun i -> Phys_mem.read_u8 (Machine.mem m) (src + i))
  in
  check (Alcotest.list int) "forward page-chunked result"
    [ 0; 0; 1; 2; 3; 4; 5; 6; 7; 8; 8; 8; 11; 12; 13; 14; 15; 16; 17; 18; 19 ]
    got

(* -- Randomized translator on/off differential --

   Random programs over all 48 constructors run on bare metal with the
   translator on and off, and every observable must agree.  Operands are
   masked so a program stays inside the machine.  Written registers are
   r0-r10; r11-r15 hold the interrupt table, a data pointer, a port
   number that doubles as a COPY/CSUM length, the stack and an identity
   page directory, for LIHT, memory operands, register-port I/O, LSTK
   and LPTB to use.  Loads and stores address the data region through
   r12, straddling its page ends; immediate jump and call targets land
   inside the program; immediate ports are the UART, the PIC mask, the
   PIT control and an unmapped port.  JR, RET and IRET keep their
   random destinations and frames.  Every vector's gate is present and
   callable from any ring, and its handler acknowledges the PIC and
   moves the return pc one instruction on, so a program runs on after
   an INT, a fault or an interrupt.  The PIT ticks every few thousand
   cycles, so a program that sets IF takes timer interrupts, on
   instruction boundaries both modes must agree on.  Each program
   starts with an ALU op, so the translator engages, and ends with HLT.
   Half the programs start 28 bytes below a page end, so their fourth
   instruction is fetched across it.  A panic (a double fault, also one
   while delivering a timer interrupt) ends the run in both modes at the
   same point, so it is compared like any other end. *)

let diff_iht = 0x2000
let diff_handler = 0x3000
let diff_data = 0x10F80
let diff_port = Machine.Ports.uart
let diff_pd = 0x40000

let diff_ports =
  [| Machine.Ports.uart; Machine.Ports.pic + 1; Machine.Ports.pit + 2; 0x80 |]

let diff_origin straddle = if straddle then 0x1000 - 28 else 0x1000

let mask_instr ~origin ~len instr =
  let w rd = rd mod 11 in
  let target imm = origin + (Isa.width * (imm mod len)) in
  let port imm = diff_ports.(imm land 3) in
  let addr imm = imm land 0x1FFF in
  let range r = if r land 1 = 0 then 12 else 15 in
  match instr with
  | Isa.Movi (rd, imm) -> Isa.Movi (w rd, imm)
  | Isa.Mov (rd, rs) -> Isa.Mov (w rd, rs)
  | Isa.Add (rd, a, b) -> Isa.Add (w rd, a, b)
  | Isa.Addi (rd, a, imm) -> Isa.Addi (w rd, a, imm)
  | Isa.Sub (rd, a, b) -> Isa.Sub (w rd, a, b)
  | Isa.And_ (rd, a, b) -> Isa.And_ (w rd, a, b)
  | Isa.Or_ (rd, a, b) -> Isa.Or_ (w rd, a, b)
  | Isa.Xor_ (rd, a, b) -> Isa.Xor_ (w rd, a, b)
  | Isa.Shl (rd, a, b) -> Isa.Shl (w rd, a, b)
  | Isa.Shr (rd, a, b) -> Isa.Shr (w rd, a, b)
  | Isa.Mul (rd, a, b) -> Isa.Mul (w rd, a, b)
  | Isa.Ld (rd, _, imm) -> Isa.Ld (w rd, 12, addr imm)
  | Isa.St (_, imm, src) -> Isa.St (12, addr imm, src)
  | Isa.Ldb (rd, _, imm) -> Isa.Ldb (w rd, 12, addr imm)
  | Isa.Stb (_, imm, src) -> Isa.Stb (12, addr imm, src)
  | Isa.Jmp imm -> Isa.Jmp (target imm)
  | Isa.Jz imm -> Isa.Jz (target imm)
  | Isa.Jnz imm -> Isa.Jnz (target imm)
  | Isa.Jlt imm -> Isa.Jlt (target imm)
  | Isa.Jge imm -> Isa.Jge (target imm)
  | Isa.Jb imm -> Isa.Jb (target imm)
  | Isa.Jae imm -> Isa.Jae (target imm)
  | Isa.Call imm -> Isa.Call (target imm)
  | Isa.Pop rd -> Isa.Pop (w rd)
  | Isa.In_ (rd, _) -> Isa.In_ (w rd, 13)
  | Isa.Ini (rd, imm) -> Isa.Ini (w rd, port imm)
  | Isa.Out (_, v) -> Isa.Out (13, v)
  | Isa.Outi (imm, v) -> Isa.Outi (port imm, v)
  | Isa.Liht _ -> Isa.Liht 11
  | Isa.Lptb _ -> Isa.Lptb 15
  | Isa.Lstk (ring, _) -> Isa.Lstk (ring, Isa.sp)
  | Isa.Copy (_, s, _) -> Isa.Copy (12, range s, 13)
  | Isa.Csum (rd, a, _) -> Isa.Csum (w rd, range a, 13)
  | Isa.Rdtsc rd -> Isa.Rdtsc (w rd)
  | Isa.Nop | Isa.Hlt | Isa.Cmp _ | Isa.Cmpi _ | Isa.Jr _ | Isa.Ret
  | Isa.Push _ | Isa.Int_ _ | Isa.Iret | Isa.Sti | Isa.Cli | Isa.Tlbflush
  | Isa.Vmcall _ | Isa.Brk ->
    instr

(* The program a drawn instruction list runs as. *)
let diff_program ~origin body =
  let len = List.length body + 2 in
  (Isa.Addi (0, 0, 1) :: List.map (mask_instr ~origin ~len) body)
  @ [ Isa.Hlt ]

let diff_run ~origin program ~jit =
  let m = Machine.create ~mem_size:(512 * 1024) ~jit () in
  let mem = Machine.mem m and cpu = Machine.cpu m in
  let a = Asm.create ~origin () in
  List.iter (Asm.instr a) program;
  Machine.boot m (Asm.assemble a) ~entry:origin;
  let h = Asm.create ~origin:diff_handler () in
  Asm.movi h 10 (Asm.imm 0x20);
  Asm.outi h (Asm.imm Machine.Ports.pic) 10 (* non-specific EOI *);
  Asm.ld h 10 Isa.sp 4;
  Asm.addi h 10 10 (Asm.imm Isa.width);
  Asm.st h Isa.sp 4 10;
  Asm.iret h;
  Asm.load (Asm.assemble h) mem;
  for vector = 0 to 63 do
    write_gate mem ~table:diff_iht ~vector ~handler:diff_handler ~ring:0 ~dpl:3
  done;
  build_identity_tables mem ~pd:diff_pd ~pt:(diff_pd + 0x1000) ~mbytes:1
    ~user:true;
  let bus = Machine.bus m and pit = Machine.Ports.pit in
  Io_bus.write bus pit 8;
  Io_bus.write bus (pit + 1) 0;
  Io_bus.write bus (pit + 2) 1 (* periodic *);
  Cpu.set_iht_base cpu diff_iht;
  for ring = 0 to 3 do
    Cpu.set_ring_stack cpu ring 0x9000
  done;
  List.iter
    (fun (r, v) -> Cpu.write_reg cpu r v)
    [
      (11, diff_iht); (12, diff_data); (13, diff_port); (Isa.sp, 0x8000);
      (15, diff_pd);
    ];
  (try Machine.run_for m ~cycles:30_000L with Cpu.Panic _ -> ());
  m

let prop_jit_on_off_random =
  let print (straddle, body) =
    let origin = diff_origin straddle in
    String.concat "\n"
      (Printf.sprintf "origin 0x%x" origin
      :: List.map Isa.to_string (diff_program ~origin body))
  in
  QCheck.Test.make ~name:"translator on/off agree on random programs"
    ~count:300
    (QCheck.make ~print
       ~shrink:QCheck.Shrink.(pair bool list)
       QCheck.Gen.(pair bool (list_size (int_range 2 40) instr_gen)))
    (fun (straddle, body) ->
      let origin = diff_origin straddle in
      let program = diff_program ~origin body in
      ignore (check_jit_on_off "random program" (diff_run ~origin program));
      true)

(* The library reads no environment: [Machine.create] starts the
   translator on whatever LWVMM_JIT says, and only [~jit:false] turns it
   off (the variable is read in bin/ and bench/). *)
let test_machine_jit_parameter () =
  let saved = Sys.getenv_opt "LWVMM_JIT" in
  Unix.putenv "LWVMM_JIT" "0";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "LWVMM_JIT" (Option.value saved ~default:""))
    (fun () ->
      check bool "default ignores LWVMM_JIT=0" true
        (Cpu.jit_enabled (Machine.cpu (Machine.create ~mem_size:65536 ())));
      check bool "~jit:false turns it off" false
        (Cpu.jit_enabled (Machine.cpu (Machine.create ~mem_size:65536 ~jit:false ()))))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vmm_hw"
    [
      ( "word",
        [
          Alcotest.test_case "wrapping" `Quick test_word_wrap;
          Alcotest.test_case "shifts" `Quick test_word_shifts;
          Alcotest.test_case "comparisons" `Quick test_word_compare;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "read/write" `Quick test_mem_rw;
          Alcotest.test_case "bounds" `Quick test_mem_bounds;
          Alcotest.test_case "write generations" `Quick test_mem_generations;
          Alcotest.test_case "checksum" `Quick test_mem_checksum_matches_rfc;
          Alcotest.test_case "checksum odd" `Quick test_mem_checksum_odd_len;
          Alcotest.test_case "checksum long run" `Quick
            test_mem_checksum_long_run;
        ]
        @ qsuite [ prop_checksum_add_bytewise ] );
      ( "isa",
        [
          Alcotest.test_case "decode error" `Quick test_isa_decode_error;
          Alcotest.test_case "privileged set" `Quick test_isa_privileged_set;
        ]
        @ qsuite [ prop_isa_roundtrip ] );
      ( "asm",
        [
          Alcotest.test_case "labels" `Quick test_asm_labels;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
          Alcotest.test_case "data/align" `Quick test_asm_data_and_align;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "arithmetic" `Quick test_cpu_arith;
          Alcotest.test_case "branches" `Quick test_cpu_branches;
          Alcotest.test_case "call/stack" `Quick test_cpu_call_stack;
          Alcotest.test_case "memory" `Quick test_cpu_memory;
          Alcotest.test_case "copy/csum" `Quick test_cpu_copy_csum;
          Alcotest.test_case "rdtsc" `Quick test_cpu_rdtsc_monotonic;
          Alcotest.test_case "software interrupt" `Quick
            test_cpu_software_interrupt;
          Alcotest.test_case "ring3 privilege fault" `Quick
            test_cpu_privilege_fault_ring3;
          Alcotest.test_case "stack switch" `Quick
            test_cpu_stack_switch_on_ring_change;
          Alcotest.test_case "int gate dpl" `Quick test_cpu_int_gate_dpl_enforced;
          Alcotest.test_case "hardware interrupt" `Quick
            test_cpu_hardware_interrupt;
          Alcotest.test_case "IF masks" `Quick test_cpu_if_masks_interrupts;
          Alcotest.test_case "page fault delivery" `Quick
            test_cpu_page_fault_delivery;
          Alcotest.test_case "io permission bitmap" `Quick
            test_io_permission_bitmap;
          Alcotest.test_case "fetch across pages" `Quick
            test_cpu_fetch_across_page_boundary;
          Alcotest.test_case "unaligned u32 across pages" `Quick
            test_cpu_unaligned_u32_across_pages;
          Alcotest.test_case "copy across pages" `Quick
            test_cpu_copy_across_pages;
          Alcotest.test_case "iret with TF" `Quick
            test_cpu_iret_to_ring3_with_pending_step;
          Alcotest.test_case "irq delivery fault panics" `Quick
            test_cpu_irq_delivery_fault_panics;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "translate + bits" `Quick test_mmu_translate_and_bits;
          Alcotest.test_case "faults" `Quick test_mmu_faults;
          Alcotest.test_case "probe" `Quick test_mmu_probe;
          Alcotest.test_case "write hit caches dirty" `Quick
            test_mmu_write_hit_dirty_cached;
          Alcotest.test_case "tlb-hit path" `Quick test_mmu_hit_path;
        ] );
      ( "pic",
        [
          Alcotest.test_case "priority/eoi" `Quick test_pic_priority_and_eoi;
          Alcotest.test_case "preemption" `Quick
            test_pic_higher_priority_preempts_service;
          Alcotest.test_case "mask" `Quick test_pic_mask;
          Alcotest.test_case "intr line" `Quick test_pic_intr_line_callback;
        ] );
      ("pit", [ Alcotest.test_case "periodic rate" `Quick test_pit_periodic ]);
      ( "uart",
        [
          Alcotest.test_case "tx wire" `Quick test_uart_wire;
          Alcotest.test_case "rx irq" `Quick test_uart_rx_irq;
        ] );
      ( "scsi",
        [
          Alcotest.test_case "read + pattern" `Quick test_scsi_read;
          Alcotest.test_case "write readback" `Quick test_scsi_write_readback;
          Alcotest.test_case "streaming rate" `Quick test_scsi_streaming_rate;
        ] );
      ( "nic",
        [
          Alcotest.test_case "tx" `Quick test_nic_tx;
          Alcotest.test_case "wire rate" `Quick test_nic_wire_rate;
          Alcotest.test_case "in-flight frames" `Quick test_nic_inflight;
          Alcotest.test_case "clear_on_frame" `Quick test_nic_clear_on_frame;
          Alcotest.test_case "rx" `Quick test_nic_rx;
        ] );
      ( "io_bus",
        [
          Alcotest.test_case "unclaimed" `Quick test_io_bus_unclaimed;
          Alcotest.test_case "conflict" `Quick test_io_bus_conflict;
        ] );
      ( "machine",
        [
          Alcotest.test_case "idle accounting" `Quick test_machine_idle_vs_busy;
          Alcotest.test_case "busy loop" `Quick test_machine_busy_loop;
          Alcotest.test_case "determinism" `Quick test_machine_determinism;
        ] );
      ( "icache",
        [
          Alcotest.test_case "self-modifying code" `Quick
            test_icache_self_modifying;
          Alcotest.test_case "breakpoint plant/remove" `Quick
            test_icache_breakpoint_patch;
          Alcotest.test_case "dma invalidation" `Quick
            test_icache_dma_invalidation;
          Alcotest.test_case "set_ptb remap" `Quick test_icache_set_ptb_remap;
          Alcotest.test_case "fetch beyond RAM" `Quick
            test_fetch_beyond_ram_machine_check;
        ] );
      ( "jit",
        [
          Alcotest.test_case "compiles, hits, chains" `Quick
            test_jit_compiles_and_chains;
          Alcotest.test_case "on/off bit-identical" `Quick
            test_jit_on_off_identical;
          Alcotest.test_case "self-modifying code" `Quick
            test_jit_self_modifying;
          Alcotest.test_case "dma invalidation" `Quick
            test_jit_dma_invalidation;
          Alcotest.test_case "breakpoint plant" `Quick
            test_jit_breakpoint_patch;
          Alcotest.test_case "set_ptb remap" `Quick test_jit_set_ptb_remap;
          Alcotest.test_case "interpreter-only head" `Quick
            test_jit_interpreter_only_head;
          Alcotest.test_case "interpreter allocation" `Quick
            test_interpreter_alloc;
          Alcotest.test_case "copy over own block" `Quick
            test_jit_copy_over_own_block;
          Alcotest.test_case "copy/csum fault under lw-vmm" `Quick
            test_jit_copy_csum_fault_lw;
          Alcotest.test_case "copy/csum at a straddling pc" `Quick
            test_copy_csum_straddling_pc;
          Alcotest.test_case "copy evicts code tlb" `Quick
            test_jit_copy_evicts_code_tlb;
          Alcotest.test_case "copy refills code tlb" `Quick
            test_jit_copy_refills_code_tlb;
          Alcotest.test_case "csum odd first chunk" `Quick
            test_jit_csum_odd_first_chunk;
          Alcotest.test_case "copy forward chunks" `Quick
            test_jit_copy_forward_chunks;
          Alcotest.test_case "machine jit parameter" `Quick
            test_machine_jit_parameter;
        ]
        @ qsuite [ prop_jit_on_off_random ] );
      ( "properties",
        qsuite [ prop_mmu_probe_agrees_with_translate; prop_disassembly_roundtrip ] );
    ]
