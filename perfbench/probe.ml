(* Host-side measurement for the host-cost benchmark: a nanosecond clock,
   an in-memory span recorder, a traced rebuild of [Machine.run_until]
   from its public pieces, the percentile helper and the digest of
   simulated state.  Nothing here writes simulated state: the benchmark
   observes each layer from outside, by timing calls into it. *)

module Engine = Vmm_sim.Engine
module Stats = Vmm_sim.Stats
module Machine = Vmm_hw.Machine
module Cpu = Vmm_hw.Cpu
module Json = Vmm_obs.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of_ns ns = float_of_int ns /. 1e9

(* ---------------------------------------------------------------- *)
(* Percentiles                                                       *)
(* ---------------------------------------------------------------- *)

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in hundredths of a percent (9900 = p99),
   so ranks are exact integers. *)
let rank ~n ~p_bp = max 1 ((p_bp * n + 9999) / 10000)

let percentile_bp sorted p_bp =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (rank ~n ~p_bp - 1))

let median sorted = percentile_bp sorted 5000

type tail = { p : float; value : float; samples : int }

(* The highest of p50, p90, p99, p99.9 and p99.99 that has at least ten
   samples beyond it; the maximum when even the median has fewer than
   ten above it. *)
let tail sorted =
  let n = Array.length sorted in
  let supported p_bp = n - rank ~n ~p_bp >= 10 in
  match List.find_opt supported [ 9999; 9990; 9900; 9000; 5000 ] with
  | Some p_bp ->
    { p = float_of_int p_bp /. 100.0; value = percentile_bp sorted p_bp; samples = n }
  | None ->
    { p = 100.0; value = (if n = 0 then 0.0 else sorted.(n - 1)); samples = n }

(* ---------------------------------------------------------------- *)
(* Host calibration                                                  *)
(* ---------------------------------------------------------------- *)

(* The host's other tenants slow the simulator by 20 to 40 % for
   minutes at a time, so a host time taken over one run moves with the
   neighbours.  A fixed kernel of the benchmark's own, allocating and
   touching a working set much as the simulator does, is timed between
   set-ups, units and harness calls; a sample over [reference_ns] is a
   contention factor, and the end-to-end host times are reported
   divided by the factors sampled as they ran (the text report prints
   them as measured too).

   The kernel runs in a child process, a second start of the
   benchmark's own executable, and only while the parent waits for it:
   the child's heap, its garbage collections and its caches owe nothing
   to the simulator's heap, so a change to how the simulator allocates
   cannot move the factor and so cancel its own effect.  Asked for a
   sample, the child runs the kernel once untimed, which refills its
   caches, then once timed. *)

(* The kernel's time on the 2-vCPU Xeon host the benchmark was tuned on,
   with quiet neighbours. *)
let reference_ns = 8_000_000

let calibration_kernel () =
  let h = Hashtbl.create 4096 in
  let a = Array.make 65536 0 in
  let acc = ref 0 in
  for i = 0 to 199_999 do
    let j = (i * 7919) land 65535 in
    a.(j) <- a.(j) + i;
    acc := !acc lxor a.((j * 31) land 65535);
    Hashtbl.replace h (i land 4095) (!acc, i)
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h, !acc))

(* The flag that makes the benchmark's executable run as the child. *)
let calibration_flag = "--calibrate"

(* The child: one sample, in ns, per line read, until end of input. *)
let calibration_child () =
  try
    while true do
      ignore (input_line stdin : string);
      calibration_kernel ();
      let t0 = now_ns () in
      calibration_kernel ();
      Printf.printf "%d\n%!" (now_ns () - t0)
    done
  with End_of_file -> ()

type calibration = {
  mutable samples : float list;
  pid : int;
  to_child : out_channel;
  of_child : in_channel;
}

let calibration () =
  let exe = Sys.executable_name in
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let of_child, child_out = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; calibration_flag |] child_in child_out Unix.stderr in
  Unix.close child_in;
  Unix.close child_out;
  {
    samples = [];
    pid;
    to_child = Unix.out_channel_of_descr to_child;
    of_child = Unix.in_channel_of_descr of_child;
  }

let calibrate c =
  output_string c.to_child "sample\n";
  flush c.to_child;
  match int_of_string_opt (try input_line c.of_child with End_of_file -> "") with
  | Some ns -> c.samples <- float_of_int ns :: c.samples
  | None -> failwith "calibration child failed"

(* Close the child's input, so that it ends, and wait for it. *)
let stop_calibration c =
  close_out_noerr c.to_child;
  close_in_noerr c.of_child;
  ignore (Unix.waitpid [] c.pid : int * Unix.process_status)

(* ---------------------------------------------------------------- *)
(* Spans                                                             *)
(* ---------------------------------------------------------------- *)

(* Span names.  A [Call] times one call into the program; a [Phase]
   groups calls.  Trace coverage is call time over unit time. *)
type kind = Phase | Call

let span_table =
  [|
    ("unit", Phase);
    ("setup", Phase);
    ("setup.kernel_build", Call);
    ("setup.machine_create", Call);
    ("setup.install_boot", Call);
    ("setup.warmup", Phase);
    ("window", Phase);
    ("engine.dispatch_due", Call);
    ("cpu.poll_interrupts", Call);
    ("engine.idle_run_until", Call);
    ("cpu.run_batch", Call);
    ("session.cmd", Call);
    ("harness.fig31.bare", Call);
    ("harness.fig31.lw", Call);
    ("harness.fig31.full", Call);
    ("harness.headline.bare", Call);
    ("harness.headline.lw", Call);
    ("harness.headline.full", Call);
  |]

let span_id name =
  let rec find i =
    if i >= Array.length span_table then invalid_arg ("Probe.span_id: " ^ name)
    else if fst span_table.(i) = name then i
    else find (i + 1)
  in
  find 0

let s_unit = span_id "unit"
let s_setup = span_id "setup"
let s_dispatch = span_id "engine.dispatch_due"
let s_poll = span_id "cpu.poll_interrupts"
let s_idle = span_id "engine.idle_run_until"
let s_batch = span_id "cpu.run_batch"

let max_depth = 16

type tracer = {
  mutable run : int;  (** ID of the workload unit being traced *)
  cap : int;  (** spans kept in memory; later ones are only aggregated *)
  start : int array;
  stop : int array;
  name : int array;
  parent : int array;
  runs : int array;
  mutable stored : int;
  mutable dropped : int;
  total_ns : int array;  (** per span name *)
  count : int array;
  words : float array;  (** minor words allocated inside, per name *)
  st_name : int array;  (** open-span stack *)
  st_idx : int array;
  st_t0 : int array;
  st_w0 : float array;
  mutable depth : int;
  mutable instrs : int;  (** retired inside [Cpu.run_batch] *)
  mutable events : int;  (** run by [Engine.dispatch_due] *)
  mutable useful_dispatches : int;  (** dispatch calls that ran an event *)
}

let create_tracer ?(cap = 65536) () =
  let names = Array.length span_table in
  {
    run = 0;
    cap;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    name = Array.make cap 0;
    parent = Array.make cap (-1);
    runs = Array.make cap 0;
    stored = 0;
    dropped = 0;
    total_ns = Array.make names 0;
    count = Array.make names 0;
    words = Array.make names 0.0;
    st_name = Array.make max_depth 0;
    st_idx = Array.make max_depth (-1);
    st_t0 = Array.make max_depth 0;
    st_w0 = Array.make max_depth 0.0;
    depth = 0;
    instrs = 0;
    events = 0;
    useful_dispatches = 0;
  }

(* The clock is read outside the allocation bracket and the allocation
   counter inside the time bracket, so neither measurement sees the
   other's cost. *)
let enter tr id =
  let d = tr.depth in
  let idx =
    if tr.stored < tr.cap then begin
      let i = tr.stored in
      tr.stored <- i + 1;
      tr.name.(i) <- id;
      tr.parent.(i) <- (if d = 0 then -1 else tr.st_idx.(d - 1));
      tr.runs.(i) <- tr.run;
      i
    end
    else begin
      tr.dropped <- tr.dropped + 1;
      -1
    end
  in
  tr.st_name.(d) <- id;
  tr.st_idx.(d) <- idx;
  tr.depth <- d + 1;
  tr.st_t0.(d) <- now_ns ();
  tr.st_w0.(d) <- Gc.minor_words ()

let leave tr =
  let w1 = Gc.minor_words () in
  let t1 = now_ns () in
  let d = tr.depth - 1 in
  tr.depth <- d;
  let id = tr.st_name.(d) in
  let t0 = tr.st_t0.(d) in
  tr.total_ns.(id) <- tr.total_ns.(id) + (t1 - t0);
  tr.count.(id) <- tr.count.(id) + 1;
  tr.words.(id) <- tr.words.(id) +. (w1 -. tr.st_w0.(d));
  let idx = tr.st_idx.(d) in
  if idx >= 0 then begin
    tr.start.(idx) <- t0;
    tr.stop.(idx) <- t1
  end

(* [span tr id f] — [f ()] inside a span when tracing, plain otherwise. *)
let span tr id f =
  match tr with
  | None -> f ()
  | Some tr ->
    enter tr id;
    let r = f () in
    leave tr;
    r

let total_s tr id = seconds_of_ns tr.total_ns.(id)
let calls tr id = tr.count.(id)
let words tr id = tr.words.(id)

(* Host time inside [Call] spans: calls never nest inside calls, since
   the benchmark only calls into the program at its top level. *)
let call_ns tr =
  let acc = ref 0 in
  Array.iteri
    (fun id (_, kind) -> if kind = Call then acc := !acc + tr.total_ns.(id))
    span_table;
  !acc

(* Chrome trace-event JSON (loads in Perfetto / chrome://tracing). *)
let write_spans tr ~path ~meta =
  let t_base = if tr.stored > 0 then tr.start.(0) else 0 in
  let us ns = float_of_int ns /. 1000.0 in
  let events =
    List.init tr.stored (fun i ->
        Json.Obj
          [
            ("name", Json.String (fst span_table.(tr.name.(i))));
            ("ph", Json.String "X");
            ("ts", Json.Float (us (tr.start.(i) - t_base)));
            ("dur", Json.Float (us (tr.stop.(i) - tr.start.(i))));
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj
                [
                  ("id", Json.Int i);
                  ("parent", Json.Int tr.parent.(i));
                  ("run", Json.Int tr.runs.(i));
                ] );
          ])
  in
  let doc =
    Json.Obj
      [
        ("traceEvents", Json.List events);
        ( "otherData",
          Json.Obj
            (meta
            @ [
                ("spans_kept", Json.Int tr.stored);
                ("spans_dropped", Json.Int tr.dropped);
              ]) );
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* ---------------------------------------------------------------- *)
(* The traced run loop                                               *)
(* ---------------------------------------------------------------- *)

(* [Machine.run_until] rebuilt from its public pieces, with a span around
   each call.  It must stay step-for-step the same as the original (the
   self-tests compare digests).  The original also emits block-counter
   tracks when the machine's tracer is on; the benchmark never turns
   that tracer on. *)
let run_until tr m ~time =
  let engine = Machine.engine m in
  let cpu = Machine.cpu m in
  while Int64.compare (Engine.now engine) time < 0 do
    enter tr s_dispatch;
    let n = Engine.dispatch_due engine in
    leave tr;
    tr.events <- tr.events + n;
    if n > 0 then tr.useful_dispatches <- tr.useful_dispatches + 1;
    enter tr s_poll;
    Cpu.poll_interrupts cpu;
    leave tr;
    if Cpu.halted cpu || Cpu.stopped cpu then begin
      let target =
        match Engine.next_event_time engine with
        | Some te when Int64.compare te time <= 0 -> te
        | Some _ | None -> time
      in
      enter tr s_idle;
      Engine.run_until engine ~time:target;
      leave tr
    end
    else begin
      let horizon =
        match Engine.next_event_time engine with
        | Some te when Int64.compare te time < 0 -> te
        | Some _ | None -> time
      in
      let wake = Engine.wake_generation engine in
      let i0 = Cpu.instructions_retired cpu in
      enter tr s_batch;
      Cpu.run_batch cpu ~horizon ~wake;
      leave tr;
      tr.instrs <-
        tr.instrs + Int64.to_int (Int64.sub (Cpu.instructions_retired cpu) i0)
    end
  done

(* Advance to [time] with the program's own loop, or the traced one. *)
let advance tr m ~time =
  match tr with
  | None -> Machine.run_until m ~time
  | Some tr -> run_until tr m ~time

(* ---------------------------------------------------------------- *)
(* Digest of simulated state                                         *)
(* ---------------------------------------------------------------- *)

(* Hex digest of named simulated quantities.  Host-side numbers never
   enter it. *)
let digest fields =
  let b = Buffer.create 512 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v;
      Buffer.add_char b ';')
    fields;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

(* Cycles, instructions retired, busy cycles by category and NIC output
   of a machine, as digest fields. *)
let machine_fields m =
  let cpu = Machine.cpu m in
  let load = Machine.load m in
  let nic = Machine.nic m in
  [
    ("cycles", Int64.to_string (Machine.now m));
    ("instrs", Int64.to_string (Cpu.instructions_retired cpu));
    ("busy", Int64.to_string (Stats.busy_cycles load));
    ("nic_bytes", Int64.to_string (Vmm_hw.Nic.bytes_sent nic));
    ("nic_frames", string_of_int (Vmm_hw.Nic.frames_sent nic));
  ]
  @ List.map
      (fun (cat, v) -> ("busy." ^ cat, Int64.to_string v))
      (Stats.busy_by_category load)

(* The run's contention: median kernel time over the reference. *)
let contention c =
  match c.samples with
  | [] -> 1.0
  | l -> median (sorted_of_list l) /. float_of_int reference_ns
