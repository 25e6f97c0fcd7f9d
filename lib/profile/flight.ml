type detail =
  | Event of Vmm_replay.Event.payload
  | Reflect of { vector : int; pc : int; depth : int }
  | Io of { port : int; pc : int }
  | Text of string

type entry = {
  cycle : int;
  kind : string;
  detail : string;
}

(* The ring is three parallel arrays rather than an array of slot
   records, so recording an event stores three fields and allocates
   nothing; the detail value itself is the caller's. *)
type t = {
  cycles : int array;
  kinds : string array;
  details : detail array;
  mutable next : int;
  mutable total : int;
}

let no_detail = Text ""
let default_capacity = 512

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity < 1";
  {
    cycles = Array.make capacity 0;
    kinds = Array.make capacity "";
    details = Array.make capacity no_detail;
    next = 0;
    total = 0;
  }

let capacity t = Array.length t.cycles

(* Steady-state cost is exactly this: three array stores and two index
   updates.  The detail stays typed; no formatting happens until a dump
   is requested. *)
let note t ~cycle ~kind detail =
  let i = t.next in
  t.cycles.(i) <- cycle;
  t.kinds.(i) <- kind;
  t.details.(i) <- detail;
  t.next <- (if i + 1 = Array.length t.cycles then 0 else i + 1);
  t.total <- t.total + 1

let render_detail = function
  | Event p -> Format.asprintf "%a" Vmm_replay.Event.pp_payload p
  | Reflect { vector; pc; depth } ->
    Printf.sprintf "vector=%d pc=0x%x depth=%d" vector pc depth
  | Io { port; pc } -> Printf.sprintf "port=0x%x pc=0x%x" port pc
  | Text s -> s

let total t = t.total
let retained t = min t.total (capacity t)
let dropped t = t.total - retained t

let entries t =
  let n = retained t in
  let cap = capacity t in
  List.init n (fun i ->
      let j = (t.next - n + i + (2 * cap)) mod cap in
      {
        cycle = t.cycles.(j);
        kind = t.kinds.(j);
        detail = render_detail t.details.(j);
      })

let clear t =
  let cap = capacity t in
  Array.fill t.cycles 0 cap 0;
  Array.fill t.kinds 0 cap "";
  Array.fill t.details 0 cap no_detail;
  t.next <- 0;
  t.total <- 0

(* Self-describing text — the [qR] payload and the crash-bundle flight
   section: a header line, then one [@cycle kind: detail] line per
   retained entry, oldest first. *)
let dump t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "flight total=%d retained=%d dropped=%d capacity=%d\n"
       t.total (retained t) (dropped t) (capacity t));
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "@%d %s: %s\n" e.cycle e.kind e.detail))
    (entries t);
  Buffer.contents buf
