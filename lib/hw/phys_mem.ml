(* Every store bumps the generation of the 64-byte granule(s) it touches,
   so physically-tagged caches above (the CPU's decoded-instruction cache)
   validate with one read instead of watching every writer.  The
   granule is deliberately finer than an MMU page: guest kernels keep hot
   data right next to code, and a 4 KiB granule would let counter stores
   invalidate the whole text page around them. *)
let granule_bits = 6

(* The generations are native-endian 64-bit words in a byte string
   rather than an [int array]: the garbage collector does not scan a
   string, so a machine's 2 MiB of counters costs no marking work. *)
type t = {
  data : Bytes.t;
  granule_gens : Bytes.t;
}

exception Bus_error of int

let create ~size =
  if size <= 0 then invalid_arg "Phys_mem.create: size <= 0";
  {
    data = Bytes.make size '\000';
    granule_gens = Bytes.make (8 * (((size - 1) lsr granule_bits) + 1)) '\000';
  }

let size t = Bytes.length t.data

let check t addr len =
  if addr < 0 || addr + len > Bytes.length t.data then raise (Bus_error addr)

(* Unchecked native-endian 64-bit access; callers have bounds-checked the
   range.  Unaligned addresses are fine on every target OCaml supports. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] gen_get t g = Int64.to_int (get64u t.granule_gens (g lsl 3))

let[@inline] gen_incr t g =
  set64u t.granule_gens (g lsl 3) (Int64.of_int (gen_get t g + 1))

let generation t addr = gen_get t (addr lsr granule_bits)

let generation_sum t ~addr ~len =
  if len <= 0 then 0
  else begin
    let first = addr lsr granule_bits and last = (addr + len - 1) lsr granule_bits in
    if addr < 0 || 8 * last >= Bytes.length t.granule_gens then
      invalid_arg "index out of bounds";
    let sum = ref 0 in
    for g = first to last do
      sum := !sum + gen_get t g
    done;
    !sum
  end

(* [addr, addr+len) is already bounds-checked when this runs. *)
let bump t addr len =
  let first = addr lsr granule_bits in
  let last = (addr + len - 1) lsr granule_bits in
  gen_incr t first;
  if last > first then
    for p = first + 1 to last do
      gen_incr t p
    done

let read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.unsafe_get t.data addr)

let write_u8 t addr v =
  check t addr 1;
  bump t addr 1;
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF))

let read_u16 t addr =
  check t addr 2;
  Char.code (Bytes.unsafe_get t.data addr)
  lor (Char.code (Bytes.unsafe_get t.data (addr + 1)) lsl 8)

let write_u16 t addr v =
  check t addr 2;
  bump t addr 2;
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set t.data (addr + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF))

let read_u32 t addr =
  check t addr 4;
  Char.code (Bytes.unsafe_get t.data addr)
  lor (Char.code (Bytes.unsafe_get t.data (addr + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get t.data (addr + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get t.data (addr + 3)) lsl 24)

let write_u32 t addr v =
  check t addr 4;
  bump t addr 4;
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set t.data (addr + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set t.data (addr + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set t.data (addr + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))

let load_bytes t ~addr bytes =
  check t addr (Bytes.length bytes);
  if Bytes.length bytes > 0 then bump t addr (Bytes.length bytes);
  Bytes.blit bytes 0 t.data addr (Bytes.length bytes)

let read_bytes t ~addr ~len =
  check t addr len;
  Bytes.sub t.data addr len

let blit_to_bytes t ~addr dst ~off ~len =
  check t addr len;
  Bytes.blit t.data addr dst off len

let write_bytes t ~addr src ~off ~len =
  check t addr len;
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Phys_mem.write_bytes";
  if len > 0 then bump t addr len;
  Bytes.blit src off t.data addr len

let blit t ~src ~dst ~len =
  check t src len;
  check t dst len;
  if len > 0 then bump t dst len;
  Bytes.blit t.data src t.data dst len

external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_le64 b i =
  if Sys.big_endian then bswap64 (get64u b i) else get64u b i

(* Two 16-bit lanes per 32-bit field: masking a little-endian word with
   this keeps lanes 0 and 2; shifting it right by 16 first keeps lanes 1
   and 3. *)
let lanes = 0x0000_FFFF_0000_FFFF

(* Words summed into one lane accumulator before it is folded into the
   running sum.  Each word adds at most 2 * 0xFFFF to either 32-bit
   field, and the upper field has 31 bits in a 63-bit int, so 16384
   words is the most that cannot carry out of it. *)
let fold_words = 8192

let checksum_add t ~addr ~len ~index sum =
  check t addr len;
  (* Ones'-complement accumulation with explicit byte index, so callers
     summing chunk by chunk keep global little-endian 16-bit pairing: a
     byte at an even global index adds itself, one at an odd index adds
     itself shifted left by 8.  After at most one odd-index head byte,
     every 16-bit little-endian pair adds exactly its two bytes' share, so
     the body sums four pairs per 64-bit word; the result is the integer
     the byte-at-a-time loop would return. *)
  let d = t.data in
  let stop = addr + len in
  let sum = ref sum and p = ref addr in
  if len > 0 && index land 1 <> 0 then begin
    sum := !sum + (Char.code (Bytes.unsafe_get d addr) lsl 8);
    p := addr + 1
  end;
  while stop - !p >= 8 do
    let block_end = !p + (8 * min fold_words ((stop - !p) / 8)) in
    let acc = ref 0 in
    while !p < block_end do
      let w = get_le64 d !p in
      acc :=
        !acc
        + (Int64.to_int w land lanes)
        + (Int64.to_int (Int64.shift_right_logical w 16) land lanes);
      p := !p + 8
    done;
    sum := !sum + (!acc land 0xFFFF_FFFF) + (!acc lsr 32)
  done;
  while stop - !p >= 2 do
    sum := !sum + Bytes.get_uint16_le d !p;
    p := !p + 2
  done;
  if !p < stop then sum := !sum + Char.code (Bytes.unsafe_get d !p);
  !sum

let checksum t ~addr ~len =
  check t addr len;
  (* Standard Internet checksum: 16-bit ones'-complement sum, odd trailing
     byte padded with zero. *)
  let sum = checksum_add t ~addr ~len ~index:0 0 in
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  lnot !s land 0xFFFF

let fill t ~addr ~len v =
  check t addr len;
  if len > 0 then bump t addr len;
  Bytes.fill t.data addr len (Char.chr (v land 0xFF))
