type t = {
  mutable clock : int;
  queue : (unit -> unit) Event_queue.t;
  mutable wake : int;
}

let create () = { clock = 0; queue = Event_queue.create (); wake = 0 }

let no_event = Event_queue.no_event

(* The [int64] boundary.  A time the native clock cannot hold is refused
   rather than wrapped; a horizon beyond it only means "never". *)
let max_time = Int64.of_int no_event

let cycles_of_time fn time =
  if Int64.compare time max_time >= 0 then
    invalid_arg (fn ^ ": time beyond the native cycle range")
  else Int64.to_int time

let horizon_of_time time =
  if Int64.compare time max_time >= 0 then no_event else Int64.to_int time

let now_int t = t.clock
let now t = Int64.of_int t.clock

let wake_generation t = t.wake

let advance t cycles =
  if cycles < 0 then invalid_arg "Engine.advance: negative";
  t.clock <- t.clock + cycles

let at_int t ~time f =
  let time = if time < t.clock then t.clock else time in
  t.wake <- t.wake + 1;
  Event_queue.add t.queue ~time f

let at t ~time f = at_int t ~time:(cycles_of_time "Engine.at" time) f

let after t ~delay f =
  let delay = cycles_of_time "Engine.after" delay in
  if delay > no_event - 1 - t.clock then
    invalid_arg "Engine.after: time beyond the native cycle range";
  at_int t ~time:(t.clock + delay) f

let cancel t handle = Event_queue.cancel t.queue handle

let next_event_int t = Event_queue.next_time t.queue

let next_event_time t =
  let time = Event_queue.next_time t.queue in
  if time = no_event then None else Some (Int64.of_int time)

let dispatch_due t =
  let n = ref 0 in
  while Event_queue.next_time t.queue <= t.clock do
    Event_queue.pop t.queue ();
    incr n
  done;
  !n

let run_until_int t ~time =
  let q = t.queue in
  while
    let next = Event_queue.next_time q in
    next <= time && next <> no_event
  do
    let event_time = Event_queue.next_time q in
    let f = Event_queue.pop q in
    if event_time > t.clock then t.clock <- event_time;
    f ()
  done;
  if time > t.clock then t.clock <- time

let run_until t ~time =
  run_until_int t ~time:(cycles_of_time "Engine.run_until" time)

let run_until_idle ?(max_events = 10_000_000) t =
  let q = t.queue in
  let n = ref 0 in
  while !n < max_events && Event_queue.next_time q <> no_event do
    let event_time = Event_queue.next_time q in
    let f = Event_queue.pop q in
    if event_time > t.clock then t.clock <- event_time;
    f ();
    incr n
  done;
  !n

let pending t = Event_queue.length t.queue
