type detail =
  | Event of Vmm_replay.Event.payload
  | Reflect of { vector : int; pc : int; depth : int }
  | Io of { port : int; pc : int }
  | Text of string

type entry = {
  cycle : int64;
  kind : string;
  detail : string;
}

type slot = {
  s_cycle : int64;
  s_kind : string;
  s_detail : detail;
}

type t = {
  ring : slot array;
  mutable next : int;
  mutable total : int;
}

let no_slot = { s_cycle = 0L; s_kind = ""; s_detail = Text "" }
let default_capacity = 512

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity < 1";
  { ring = Array.make capacity no_slot; next = 0; total = 0 }

let capacity t = Array.length t.ring

(* Steady-state cost is exactly this: one slot build, one array store,
   two index updates.  The detail stays typed; no formatting happens
   until a dump is requested. *)
let note t ~cycle ~kind detail =
  t.ring.(t.next) <- { s_cycle = cycle; s_kind = kind; s_detail = detail };
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.total <- t.total + 1

let render_detail = function
  | Event p -> Format.asprintf "%a" Vmm_replay.Event.pp_payload p
  | Reflect { vector; pc; depth } ->
    Printf.sprintf "vector=%d pc=0x%x depth=%d" vector pc depth
  | Io { port; pc } -> Printf.sprintf "port=0x%x pc=0x%x" port pc
  | Text s -> s

let total t = t.total
let retained t = min t.total (Array.length t.ring)
let dropped t = t.total - retained t

let entries t =
  let n = retained t in
  let cap = Array.length t.ring in
  List.init n (fun i ->
      let s = t.ring.((t.next - n + i + (2 * cap)) mod cap) in
      { cycle = s.s_cycle; kind = s.s_kind; detail = render_detail s.s_detail })

let clear t =
  Array.fill t.ring 0 (Array.length t.ring) no_slot;
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
        (Printf.sprintf "@%Ld %s: %s\n" e.cycle e.kind e.detail))
    (entries t);
  Buffer.contents buf
