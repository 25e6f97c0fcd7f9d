type access = Read | Write | Exec

type fault = {
  vaddr : int;
  access : access;
  not_present : bool;
}

exception Page_fault of fault

let page_size = 4096
let entries_per_table = 1024

let pte_present = 0x1
let pte_writable = 0x2
let pte_user = 0x4
let pte_nx = 0x8
let pte_accessed = 0x20
let pte_dirty = 0x40

let make_pte ~frame ~writable ~user =
  (frame land 0xFFFFF000) lor pte_present
  lor (if writable then pte_writable else 0)
  lor (if user then pte_user else 0)

let frame_of pte = pte land 0xFFFFF000
let is_present pte = pte land pte_present <> 0
let is_writable pte = pte land pte_writable <> 0
let is_user pte = pte land pte_user <> 0
let is_nx pte = pte land pte_nx <> 0
let dir_index vaddr = (vaddr lsr 22) land 0x3FF
let table_index vaddr = (vaddr lsr 12) land 0x3FF

(* Direct-mapped TLB keyed by virtual page number.  Each entry caches the
   physical frame, the effective permissions and the PTE's physical address
   so the dirty bit can be set on write hits.  [fast] caches the answer of
   the whole hit path: one bit per (access, supervisor/user) pair, set when
   a hit with that pair can neither fault nor need a PTE store (see
   [access_bit]). *)
type tlb_entry = {
  mutable vpn : int; (* -1 = invalid *)
  mutable frame : int;
  mutable writable : bool;
  mutable user : bool;
  mutable nx : bool;
  mutable pte_addr : int;
  mutable dirty : bool; (* PTE dirty bit already set via this entry *)
  mutable fast : int;
}

type t = {
  tlb : tlb_entry array;
  tlb_mask : int;
  costs : Costs.t;
  mutable hits : int;
  mutable misses : int;
  penalty : int ref; (* miss cycles not yet drained by the caller *)
}

let tlb_slots = 256

let create costs =
  {
    tlb =
      Array.init tlb_slots (fun _ ->
          {
            vpn = -1;
            frame = 0;
            writable = false;
            user = false;
            nx = false;
            pte_addr = 0;
            dirty = false;
            fast = 0;
          });
    tlb_mask = tlb_slots - 1;
    costs;
    hits = 0;
    misses = 0;
    penalty = ref 0;
  }

let flush t =
  Array.iter (fun e -> e.vpn <- -1) t.tlb

(* Bit of [tlb_entry.fast] for one access by one privilege class: rings
   0-2 are supervisor (even bits), ring 3 is user (odd bits). *)
let access_bit ~cpl access =
  let b = match access with Read -> 1 | Write -> 4 | Exec -> 16 in
  if cpl = 3 then b lsl 1 else b

let fast_bits e =
  let sup =
    1 lor (if e.writable && e.dirty then 4 else 0) lor if e.nx then 0 else 16
  in
  if e.user then sup lor (sup lsl 1) else sup

let check_perms ~cpl ~access ~writable ~user ~nx ~vaddr =
  if cpl = 3 && not user then
    raise (Page_fault { vaddr; access; not_present = false });
  match access with
  | Write when not writable ->
    raise (Page_fault { vaddr; access; not_present = false })
  | Exec when nx ->
    raise (Page_fault { vaddr; access; not_present = false })
  | Write | Read | Exec -> ()

(* Everything but the common hit: a hit that must fault or set the dirty
   bit, and a miss (table walk). *)
let translate_slow t mem ~ptb ~cpl access vaddr vpn entry =
  if entry.vpn = vpn then begin
    t.hits <- t.hits + 1;
    check_perms ~cpl ~access ~writable:entry.writable ~user:entry.user
      ~nx:entry.nx ~vaddr;
    (* First write hit through this entry: set the PTE dirty bit once.
       Later write hits take the fast branch and skip the PTE
       read-modify-write entirely.  A flush (LPTB/TLBFLUSH) drops the
       entry, so table edits behave as on real hardware, where stale
       dirty state also requires a flush. *)
    if access = Write && not entry.dirty then begin
      let pte = Phys_mem.read_u32 mem entry.pte_addr in
      Phys_mem.write_u32 mem entry.pte_addr (pte lor pte_dirty);
      entry.dirty <- true;
      entry.fast <- fast_bits entry
    end;
    entry.frame lor (vaddr land 0xFFF)
  end
  else begin
    t.misses <- t.misses + 1;
    let pde_addr = (ptb land 0xFFFFF000) + (4 * dir_index vaddr) in
    let pde = Phys_mem.read_u32 mem pde_addr in
    if not (is_present pde) then
      raise (Page_fault { vaddr; access; not_present = true });
    let pte_addr = frame_of pde + (4 * table_index vaddr) in
    let pte = Phys_mem.read_u32 mem pte_addr in
    if not (is_present pte) then
      raise (Page_fault { vaddr; access; not_present = true });
    (* Effective permissions combine both levels, like x86.  NX is
       restrictive at either level (shadow directories never set it, so
       in practice only leaf PTEs carry it). *)
    let writable = is_writable pde && is_writable pte in
    let user = is_user pde && is_user pte in
    let nx = is_nx pde || is_nx pte in
    check_perms ~cpl ~access ~writable ~user ~nx ~vaddr;
    Phys_mem.write_u32 mem pde_addr (pde lor pte_accessed);
    let dirty = if access = Write then pte_dirty else 0 in
    Phys_mem.write_u32 mem pte_addr (pte lor pte_accessed lor dirty);
    entry.vpn <- vpn;
    entry.frame <- frame_of pte;
    entry.writable <- writable;
    entry.user <- user;
    entry.nx <- nx;
    entry.pte_addr <- pte_addr;
    entry.dirty <- access = Write;
    entry.fast <- fast_bits entry;
    t.penalty := !(t.penalty) + t.costs.tlb_miss;
    frame_of pte lor (vaddr land 0xFFF)
  end

(* The hit branch is the one every memory op takes: a tag compare and a
   bit test, no allocation, no PTE access. *)
let translate t mem ~ptb ~cpl access vaddr =
  if ptb = 0 then vaddr
  else begin
    let vpn = vaddr lsr 12 in
    let entry = Array.unsafe_get t.tlb (vpn land t.tlb_mask) in
    if entry.vpn = vpn && entry.fast land access_bit ~cpl access <> 0 then begin
      t.hits <- t.hits + 1;
      entry.frame lor (vaddr land 0xFFF)
    end
    else translate_slow t mem ~ptb ~cpl access vaddr vpn entry
  end

let penalty t = t.penalty

let probe mem ~ptb vaddr =
  if ptb = 0 then Some (make_pte ~frame:(vaddr land 0xFFFFF000) ~writable:true ~user:true)
  else
    let pde_addr = (ptb land 0xFFFFF000) + (4 * dir_index vaddr) in
    let pde = Phys_mem.read_u32 mem pde_addr in
    if not (is_present pde) then None
    else
      let pte_addr = frame_of pde + (4 * table_index vaddr) in
      let pte = Phys_mem.read_u32 mem pte_addr in
      if not (is_present pte) then None
      else
        (* Report effective permissions so callers need not re-combine. *)
        let combined =
          pte land lnot (pte_writable lor pte_user)
          lor (pde land pte land (pte_writable lor pte_user))
        in
        Some combined

let tlb_covers t ~vpn = (t.tlb.(vpn land t.tlb_mask)).vpn = vpn

let tlb_hits t = Int64.of_int t.hits
let tlb_misses t = Int64.of_int t.misses
let miss_count t = t.misses
