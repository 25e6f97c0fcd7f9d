(* Binary min-heap keyed by (time, sequence).  Cancellation flips the cell's
   shared liveness ref and lets the dead cell sift out lazily at pop time, so
   cancel is O(1) and handles stay type-safe ([bool ref] does not mention
   the payload type).

   The heap holds cells directly, not [cell option]: slots at or past
   [size] are never read, so the array is created from the first cell
   added and a vacated slot is refilled with the root (never with a
   popped cell, so fired payloads are not kept alive).  Reading the
   earliest time and popping it allocate nothing. *)

type 'a cell = {
  time : int;
  seq : int;
  payload : 'a;
  live : bool ref;
}

type 'a t = {
  mutable heap : 'a cell array;
  mutable size : int;
  mutable next_seq : int;
  mutable live_count : int;
}

type handle = bool ref

let no_event = max_int

let create () = { heap = [||]; size = 0; next_seq = 0; live_count = 0 }

let is_empty q = q.live_count = 0

let length q = q.live_count

let cell_lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap q i j =
  let tmp = q.heap.(i) in
  q.heap.(i) <- q.heap.(j);
  q.heap.(j) <- tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if cell_lt q.heap.(i) q.heap.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < q.size && cell_lt q.heap.(left) q.heap.(!smallest) then smallest := left;
  if right < q.size && cell_lt q.heap.(right) q.heap.(!smallest) then smallest := right;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let grow q cell =
  let cap = Array.length q.heap in
  let heap = Array.make (max 16 (2 * cap)) cell in
  Array.blit q.heap 0 heap 0 q.size;
  q.heap <- heap

let add q ~time payload =
  if time >= no_event then invalid_arg "Event_queue.add: time out of range";
  let live = ref true in
  let cell = { time; seq = q.next_seq; payload; live } in
  if q.size = Array.length q.heap then grow q cell;
  q.next_seq <- q.next_seq + 1;
  q.heap.(q.size) <- cell;
  q.size <- q.size + 1;
  q.live_count <- q.live_count + 1;
  sift_up q (q.size - 1);
  live

(* Rebuild the heap from its live cells.  The compaction in [cancel] keeps
   heavy cancel traffic (ARQ retransmit timers) from leaving the array
   mostly dead, which would make every sift walk over garbage. *)
let compact q =
  let heap = q.heap in
  let j = ref 0 in
  for i = 0 to q.size - 1 do
    let c = heap.(i) in
    if !(c.live) then begin
      heap.(!j) <- c;
      incr j
    end
  done;
  let old_size = q.size in
  q.size <- !j;
  if !j > 0 then Array.fill heap !j (old_size - !j) heap.(0);
  for i = (q.size / 2) - 1 downto 0 do
    sift_down q i
  done

let cancel q h =
  if !h then begin
    h := false;
    q.live_count <- q.live_count - 1;
    if q.size >= 32 && q.size - q.live_count > q.size / 2 then compact q;
    true
  end
  else false

let remove_root q =
  let root = q.heap.(0) in
  q.size <- q.size - 1;
  q.heap.(0) <- q.heap.(q.size);
  if q.size > 0 then begin
    q.heap.(q.size) <- q.heap.(0);
    sift_down q 0
  end;
  root

(* Drop dead cells sitting at the root so the minimum is live. *)
let rec drain_dead q =
  if q.size > 0 && not !(q.heap.(0).live) then begin
    ignore (remove_root q);
    drain_dead q
  end

let next_time q =
  drain_dead q;
  if q.size = 0 then no_event else q.heap.(0).time

let pop q =
  drain_dead q;
  if q.size = 0 then invalid_arg "Event_queue.pop: empty";
  let cell = remove_root q in
  cell.live := false;
  q.live_count <- q.live_count - 1;
  cell.payload

let clear q =
  for i = 0 to q.size - 1 do
    q.heap.(i).live := false
  done;
  q.heap <- [||];
  q.size <- 0;
  q.live_count <- 0
