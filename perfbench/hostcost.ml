(* Host-cost benchmark driver.

     hostcost --workload NAME --seed N --seconds S --trace 0|1

   Sets the workload up several times (set-up time), then repeats its
   unit until S host seconds have passed.  With --trace 0 it reports the
   end-to-end metrics, their host times rescaled by the host's
   contention factor (see Probe; a child process, this executable
   started with --calibrate, samples it).  With --trace 1 it alternates
   plain and traced units, reports the per-layer metrics (per traced
   unit where they are amounts of work or time) and writes the spans to
   perfbench/out/.  Every metric is printed as "name value unit"; the
   last line is one JSON object {correct, attempted, failed, metrics}.
   Exits 1 when a correctness check fails, 2 on bad arguments or a
   non-default configuration. *)

open Perfbench
module W = Workloads
module Json = Vmm_obs.Json

let setup_reps = 40

(* The heap's peak is read after this many plain units, a fixed amount
   of work, so that it does not grow with the run's length. *)
let heap_units = 3
let pinned_env = [ "LWVMM_JIT"; "LWVMM_BP"; "LWVMM_PROFILE" ]
let out_dir = Filename.concat "perfbench" "out"

let fail_usage msg =
  Printf.eprintf
    "hostcost: %s\n\
     usage: hostcost --workload {%s} --seed N --seconds S --trace 0|1\n"
    msg
    (String.concat "|" (List.map fst W.names));
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((flag, value) :: acc) rest
    | tok :: _ -> fail_usage ("unexpected argument " ^ tok)
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> fail_usage ("missing " ^ k) in
  let int_of k = match int_of_string_opt (get k) with Some v -> v | None -> fail_usage ("bad " ^ k) in
  let workload = get "--workload" in
  if not (List.mem_assoc workload W.names) then fail_usage ("unknown workload " ^ workload);
  let seconds = int_of "--seconds" in
  if seconds < 1 then fail_usage "--seconds must be at least 1";
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> fail_usage "--trace is 0 or 1"
  in
  { workload; seed = int_of "--seed"; seconds = float_of_int seconds; trace }

(* ---------------------------------------------------------------- *)
(* Provenance                                                        *)
(* ---------------------------------------------------------------- *)

let read_line path =
  try
    let ic = open_in path in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    Some (String.trim line)
  with Sys_error _ -> None

let git_rev () =
  match read_line ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    Option.value ~default:"unknown"
      (read_line (Filename.concat ".git" (String.sub head 5 (String.length head - 5))))
  | Some rev when rev <> "" -> rev
  | _ -> "unknown"

(* Digest of the simulator's sources, which identifies the code measured
   when the tree is not a git checkout. *)
let source_digest () =
  let rec files dir =
    let entries = try Sys.readdir dir with Sys_error _ -> [||] in
    Array.sort compare entries;
    Array.to_list entries
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Buffer.add_string b (Digest.to_hex (Digest.file p)))
    (files "lib");
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

let provenance args =
  Json.Obj
    ([
       ("workload", Json.String args.workload);
       ("seed", Json.Int args.seed);
       ("seconds", Json.Float args.seconds);
       ("trace", Json.Bool args.trace);
       ("build_profile", Json.String Build_info.profile);
       ("ocaml", Json.String Sys.ocaml_version);
       ("git_rev", Json.String (git_rev ()));
       ("source_digest", Json.String (source_digest ()));
     ]
    @ List.map
        (fun var ->
          (var, Json.String (Option.value ~default:"(unset)" (Sys.getenv_opt var))))
        pinned_env)

(* ---------------------------------------------------------------- *)
(* Run                                                               *)
(* ---------------------------------------------------------------- *)

let med xs = Probe.median (Probe.sorted_of_list xs)
let per_s ns = float_of_int ns /. 1e9

type gc_acc = { mutable minor_words : float; mutable minor : int; mutable major : int }

let calib_every_ns = 100_000_000

(* The contention factor of the calibration samples [lo..hi] (clamped to
   those taken), in the order they were taken: their median over the
   kernel's reference time. *)
let contention_of (c : Probe.calibration) lo hi =
  let samples = Array.of_list (List.rev c.samples) in
  let lo = max 0 lo and hi = min (Array.length samples - 1) hi in
  med (Array.to_list (Array.sub samples lo (hi - lo + 1))) /. float_of_int Probe.reference_ns

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = Probe.calibration_flag then begin
    Probe.calibration_child ();
    exit 0
  end;
  let args = parse Sys.argv in
  List.iter
    (fun var ->
      match Sys.getenv_opt var with
      | Some v ->
        Printf.eprintf
          "hostcost: %s=%s is set; the benchmark measures only the default \
           configuration (translator on, virtual breakpoints, profiler off)\n"
          var v;
        exit 2
      | None -> ())
    pinned_env;
  let w = List.assoc args.workload W.names in
  Printf.printf "provenance %s\n%!" (Json.to_string (provenance args));
  let commands =
    if w = W.Debug_session then W.script ~seed:args.seed else []
  in
  if commands <> [] then
    Printf.printf "commands (%d): %s\n" (List.length commands)
      (String.concat ", " (List.map W.cmd_name commands));
  let tr = if args.trace then Some (Probe.create_tracer ()) else None in
  let calib = Probe.calibration () in
  at_exit (fun () -> Probe.stop_calibration calib);
  (* A calibration sample when this much time has passed since the last,
     so that short units do not pay for one each. *)
  let last_calib = ref (Probe.now_ns () - calib_every_ns) in
  let calibrate () =
    if Probe.now_ns () - !last_calib >= calib_every_ns then begin
      Probe.calibrate calib;
      last_calib := Probe.now_ns ()
    end
  in
  (* Set-up time: the workload's first machine, several times over,
     untraced, so that the per-layer totals cover traced units only.  A
     set-up takes milliseconds, so each follows a calibration sample, and
     is rescaled by the median of that sample and its four neighbours. *)
  let setup_times =
    Array.init setup_reps (fun _ ->
        Probe.calibrate calib;
        let t0 = Probe.now_ns () in
        ignore (W.setup None w : W.ready);
        per_s (Probe.now_ns () - t0))
  in
  let setups =
    List.init setup_reps (fun i -> (setup_times.(i), contention_of calib (i - 2) (i + 2)))
  in
  last_calib := Probe.now_ns ();
  (* Measured phase: repeat the unit until the time is up; traced runs
     alternate plain and traced units so the overhead is paired. *)
  let deadline = Probe.now_ns () + int_of_float (args.seconds *. 1e9) in
  let plain = ref [] and traced = ref [] and lines = ref [] in
  let gc = { minor_words = 0.0; minor = 0; major = 0 } in
  let unit_call_ns = ref 0 in
  let heap_words = ref 0 in
  (* Traced units are not interrupted, so that their spans hold only the
     program's time. *)
  let run_one tr =
    let between = if tr = None then calibrate else ignore in
    let res, line = W.run_unit ~commands ~between tr w in
    Option.iter (fun l -> lines := l :: !lines) line;
    res
  in
  let index = ref 0 in
  while !plain = [] || (args.trace && !traced = []) || Probe.now_ns () < deadline do
    incr index;
    calibrate ();
    (match tr with
     | Some t when !index mod 2 = 0 ->
       t.Probe.run <- !index;
       let g0 = Gc.quick_stat () in
       let w0 = Gc.minor_words () in
       let c0 = Probe.call_ns t in
       Probe.enter t Probe.s_unit;
       let res = run_one tr in
       Probe.leave t;
       unit_call_ns := !unit_call_ns + (Probe.call_ns t - c0);
       let g1 = Gc.quick_stat () in
       gc.minor_words <- gc.minor_words +. (Gc.minor_words () -. w0);
       gc.minor <- gc.minor + (g1.minor_collections - g0.minor_collections);
       gc.major <- gc.major + (g1.major_collections - g0.major_collections);
       traced := res :: !traced
     | Some _ | None ->
       let n0 = List.length calib.samples in
       let res = run_one None in
       plain := (res, n0, List.length calib.samples) :: !plain;
       if List.length !plain = heap_units then heap_words := (Gc.quick_stat ()).top_heap_words)
  done;
  (* A plain unit's contention: the median of the calibration samples
     taken while it ran and of three before it and two after it, so that
     it is rescaled by the host's speed at the time.  One sample alone
     varies too much. *)
  let plain_k = List.map (fun (r, n0, n1) -> (r, contention_of calib (n0 - 3) (n1 + 1))) !plain in
  let plain = List.map fst plain_k in
  if !heap_words = 0 then heap_words := (Gc.quick_stat ()).top_heap_words;
  let heap_peak_mb = float_of_int (!heap_words * (Sys.word_size / 8)) /. 1048576.0 in
  let units = List.rev_append plain (List.rev !traced) in
  (* Correctness. *)
  let digests = List.sort_uniq compare (List.map (fun (r : W.result) -> r.digest) units) in
  let problems =
    List.concat_map (fun (r : W.result) -> r.problems) units
    @
    match digests with
    | [ _ ] -> []
    | _ ->
      [ Printf.sprintf "simulated digest differs across units%s: %s"
          (if args.trace then " (plain and traced)" else "")
          (String.concat " " digests) ]
  in
  let attempted = List.fold_left (fun a (r : W.result) -> a + r.attempted) 0 units in
  let failed =
    List.fold_left (fun a (r : W.result) -> a + r.failed) 0 units
    + if List.length digests > 1 then 1 else 0
  in
  let correct = problems = [] && failed = 0 in
  Printf.printf "units: %d plain, %d traced; simulated digest %s\n"
    (List.length plain) (List.length !traced) (String.concat " " digests);
  List.iter print_endline (List.sort_uniq compare !lines);
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.sort_uniq compare problems);
  Printf.printf "checks: %s (%d attempted, %d failed)\n"
    (if correct then "ok" else "FAILED") attempted failed;
  let ops = Probe.sorted_of_list (List.concat_map (fun (r : W.result) -> r.ops_ms) units) in
  let tail = Probe.tail ops in
  Printf.printf "host ms per operation, all samples: p50 %.4f, p%g %.4f (%d samples)\n"
    (Probe.median ops) tail.p tail.value tail.samples;
  (* Mean host ms per debugger command kind over [rs]; each unit runs
     the same commands in the same order. *)
  let kind_ms (rs : W.result list) kind =
    let xs =
      List.concat_map
        (fun (r : W.result) ->
          List.concat
            (List.map2 (fun c ms -> if W.cmd_kind c = kind then [ ms ] else []) commands r.ops_ms))
        rs
    in
    W.ratio (List.fold_left ( +. ) 0.0 xs) (float_of_int (List.length xs))
  in
  if commands <> [] then
    Printf.printf "host ms per command kind: %s\n"
      (String.concat ", "
         (List.map (fun k -> Printf.sprintf "%s %.4f" k (kind_ms plain k)) W.cmd_kinds));
  let k = Probe.contention calib in
  Printf.printf
    "host contention factor %.4f: calibration kernel median %.3f ms over %d samples, \
     reference %.3f ms%s\n"
    k (med calib.Probe.samples /. 1e6) (List.length calib.samples)
    (float_of_int Probe.reference_ns /. 1e6)
    (if args.trace then ""
     else "; end-to-end host times are reported divided by the samples taken as they ran");
  (* Host-time end-to-end metrics of a list of plain units.  Every unit
     repeats the same operations; an operation's host time is its mean
     over the units.  Within a run, means proved steadier than medians:
     cpu-bound's unit and slice times are bimodal, and their medians
     jumped between the modes from run to run.  Paper-regen's
     regeneration time is the sum of its calls' times.  Latency
     percentiles are over the operations' means, except on
     debug-session: its operations are commands of seven kinds, each
     place in the order a different context, and the median of their
     means sat at the edge between two kinds and moved from seed to
     seed; there they are over every command of every unit. *)
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs)) in
  let host_metrics (rs : W.result list) =
    let op_means =
      let per_unit = List.map (fun (r : W.result) -> Array.of_list r.ops_ms) rs in
      Array.init (Array.length (List.hd per_unit)) (fun i -> mean (List.map (fun a -> a.(i)) per_unit))
    in
    let op_samples =
      Probe.sorted_of_list
        (if w = W.Debug_session then List.concat_map (fun (r : W.result) -> r.ops_ms) rs
         else Array.to_list op_means)
    in
    let sum_s a = Array.fold_left ( +. ) 0.0 a /. 1000.0 in
    [
      ( "sim_speed",
        if w = W.Paper_regen then
          W.ratio (List.hd rs).sim_s (sum_s (Array.sub op_means 0 W.fig_points))
        else
          W.ratio
            (List.fold_left (fun a (r : W.result) -> a +. r.sim_s) 0.0 rs)
            (per_s (List.fold_left (fun a (r : W.result) -> a + r.sim_host_ns) 0 rs)) );
      ( "regen_s",
        if w = W.Paper_regen then sum_s op_means
        else mean (List.map (fun (r : W.result) -> per_s r.unit_ns) rs) );
      ("cmd_ms_p50", Probe.median op_samples);
      ("cmd_ms_p99", Probe.percentile_bp op_samples 9900);
    ]
  in
  (* A unit's host times divided by its contention. *)
  let rescale ((r : W.result), k) =
    let ns x = int_of_float (float_of_int x /. k) in
    {
      r with
      unit_ns = ns r.unit_ns;
      sim_host_ns = ns r.sim_host_ns;
      ops_ms = List.map (fun x -> x /. k) r.ops_ms;
    }
  in
  let metrics =
    match tr with
    | None ->
      let rs = plain in
      Printf.printf "host times as measured: setup_s %.6g, %s\n"
        (med (List.map fst setups))
        (String.concat ", "
           (List.map (fun (n, v) -> Printf.sprintf "%s %.6g" n v) (host_metrics rs)));
      ("setup_s", med (List.map (fun (s, k) -> s /. k) setups))
      :: host_metrics (List.map rescale plain_k)
      @ [
          ( "alloc_words_per_instr",
            med (List.map (fun (r : W.result) -> W.ratio r.words r.instrs) rs) );
          ("heap_peak_mb", heap_peak_mb);
        ]
    | Some t ->
      let rs = !traced in
      let count name = med (List.map (fun (r : W.result) -> List.assoc name r.counts) rs) in
      let session name =
        med (List.map (fun (r : W.result) -> Option.value ~default:0.0 (List.assoc_opt name r.session)) rs)
      in
      let id = Probe.span_id in
      let per_call name =
        W.ratio (Probe.total_s t (id name)) (float_of_int (Probe.calls t (id name)))
      in
      (* Amounts of work and time are per traced unit, so they do not
         grow with the number of units that fit in the run. *)
      let n_units = float_of_int (List.length rs) in
      let per_unit x = W.ratio x n_units in
      let span_per_unit name = per_unit (Probe.total_s t (id name)) in
      let batch_ns = float_of_int t.total_ns.(Probe.s_batch) in
      let instrs = float_of_int t.instrs in
      let events = float_of_int t.events in
      let dispatches = float_of_int (Probe.calls t Probe.s_dispatch) in
      let cmd_sim = Probe.sorted_of_list (List.concat_map (fun (r : W.result) -> r.cmd_sim_ms) rs) in
      let cmd_host_ms = 1000.0 *. Probe.total_s t (id "session.cmd") in
      (* Each traced unit against the plain unit run just before it. *)
      let overhead =
        let rec pairs ps ts =
          match (ps, ts) with
          | (p : W.result) :: ps, (t : W.result) :: ts ->
            (float_of_int t.sim_host_ns /. float_of_int p.sim_host_ns) :: pairs ps ts
          | _ -> []
        in
        100.0 *. (med (pairs (List.rev plain) (List.rev rs)) -. 1.0)
      in
      let unit_ns = float_of_int t.total_ns.(Probe.s_unit) in
      List.map (fun (name, _) -> (name, count name)) W.(counts zero_snap zero_snap)
      @ List.map
          (fun kind ->
            ("session.cmd_ms." ^ kind, if commands = [] then 0.0 else kind_ms rs kind))
          W.cmd_kinds
      @ [
          ("cpu.batch_s", per_unit (Probe.total_s t Probe.s_batch));
          ("cpu.batches", per_unit (float_of_int (Probe.calls t Probe.s_batch)));
          ("cpu.instrs", per_unit instrs);
          ("cpu.ns_per_instr", W.ratio batch_ns instrs);
          ("cpu.words_per_instr", W.ratio (Probe.words t Probe.s_batch) instrs);
          ("cpu.instrs_per_batch", W.ratio instrs (float_of_int (Probe.calls t Probe.s_batch)));
          ("engine.dispatch_s", per_unit (Probe.total_s t Probe.s_dispatch));
          ("engine.dispatch_calls", per_unit dispatches);
          ("engine.events", per_unit events);
          ("engine.useful_dispatch_ratio", W.ratio (float_of_int t.useful_dispatches) dispatches);
          ("engine.ns_per_event", W.ratio (float_of_int t.total_ns.(Probe.s_dispatch)) events);
          ("engine.words_per_event", W.ratio (Probe.words t Probe.s_dispatch) events);
          ("engine.idle_skip_s", per_unit (Probe.total_s t Probe.s_idle));
          ("engine.idle_skips", per_unit (float_of_int (Probe.calls t Probe.s_idle)));
          ( "session.cmds",
            per_unit
              (float_of_int
                 (List.fold_left (fun a (r : W.result) -> a + List.length r.cmd_sim_ms) 0 rs)) );
          ( "session.cmd_failed",
            if w = W.Debug_session then
              float_of_int (List.fold_left (fun a (r : W.result) -> a + r.failed) 0 units)
            else 0.0 );
          ("session.cmd_sim_ms_p50", Probe.median cmd_sim);
          ("session.cmd_sim_ms_p99", Probe.percentile_bp cmd_sim 9900);
          ("session.packets_sent", session "session.packets_sent");
          ("session.packets_received", session "session.packets_received");
          ("session.retransmissions", session "session.retransmissions");
          ("stub.commands_handled", session "stub.commands_handled");
          ("stub.notifications_sent", session "stub.notifications_sent");
          ( "session.host_ms_per_sim_ms",
            W.ratio cmd_host_ms (List.fold_left ( +. ) 0.0 (Array.to_list cmd_sim)) );
          ("setup.kernel_build_s", per_call "setup.kernel_build");
          ("setup.machine_create_s", per_call "setup.machine_create");
          ("setup.install_boot_s", per_call "setup.install_boot");
          ("setup.warmup_s", per_call "setup.warmup");
          ("harness.fig31_s.bare", span_per_unit "harness.fig31.bare");
          ("harness.fig31_s.lw", span_per_unit "harness.fig31.lw");
          ("harness.fig31_s.full", span_per_unit "harness.fig31.full");
          ("harness.headline_s.bare", span_per_unit "harness.headline.bare");
          ("harness.headline_s.lw", span_per_unit "harness.headline.lw");
          ("harness.headline_s.full", span_per_unit "harness.headline.full");
          ("gc.minor_words", per_unit gc.minor_words);
          ("gc.minor_collections", per_unit (float_of_int gc.minor));
          ("gc.major_collections", per_unit (float_of_int gc.major));
          ("trace.overhead_pct", overhead);
          ("trace.coverage", W.ratio (float_of_int !unit_call_ns) unit_ns);
          ("host.contention", k);
        ]
  in
  let table = if args.trace then Metrics.per_layer else Metrics.end_to_end in
  let ordered =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name metrics with
        | Some v when Float.is_finite v -> (name, v, unit)
        | Some _ | None -> failwith ("hostcost: no finite value for " ^ name))
      table
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%-32s %.6g %s\n" name v unit) ordered;
  Option.iter
    (fun t ->
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let path =
        Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.json" args.workload args.seed)
      in
      Probe.write_spans t ~path ~meta:[ ("provenance", provenance args) ];
      Printf.printf "spans: %s (%d kept, %d beyond the cap aggregated only)\n" path
        t.Probe.stored t.dropped)
    tr;
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, v, unit) ->
                 (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
               ordered) );
      ]
  in
  print_endline (Json.to_string result);
  exit (if correct then 0 else 1)
