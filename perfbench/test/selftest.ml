(* Self-tests of the host-cost benchmark: its traced loop must not change
   what it measures, its percentile helper must report what it claims,
   its metric names must be legal and match BENCHMARK.json, and the
   counts it calls deterministic must repeat exactly. *)

open Perfbench
module W = Workloads
module Machine = Vmm_hw.Machine
module Json = Vmm_obs.Json

(* The traced rebuild of Machine.run_until, against the original, on a
   short slice of the saturated stream: once as one long run and once
   in one-millisecond slices. *)
let test_loop_identical () =
  let slice ~traced ~sliced =
    let r = W.setup None W.Stream_lw_sat in
    let ms = W.cycles_of_s r.W.m 0.001 in
    let base = Machine.now r.W.m in
    let tr = if traced then Some (Probe.create_tracer ~cap:1024 ()) else None in
    if sliced then
      for k = 1 to 20 do
        Probe.advance tr r.W.m ~time:(Int64.add base (Int64.mul ms (Int64.of_int k)))
      done
    else Probe.advance tr r.W.m ~time:(Int64.add base (Int64.mul ms 20L));
    (W.state_digest r, tr)
  in
  let reference, _ = slice ~traced:false ~sliced:false in
  List.iter
    (fun sliced ->
      let d, tr = slice ~traced:true ~sliced in
      Alcotest.(check string) (Printf.sprintf "digest (sliced=%b)" sliced) reference d;
      let tr = Option.get tr in
      Alcotest.(check bool) "batches traced" true (Probe.calls tr Probe.s_batch > 0);
      Alcotest.(check bool) "events dispatched" true (tr.Probe.events > 0))
    [ false; true ]

let test_percentiles () =
  let samples n = Probe.sorted_of_list (List.init n (fun i -> float_of_int (i + 1))) in
  let check n ~p ~value =
    let t = Probe.tail (samples n) in
    Alcotest.(check (float 0.0)) (Printf.sprintf "n=%d percentile" n) p t.p;
    Alcotest.(check (float 0.0)) (Printf.sprintf "n=%d value" n) value t.value;
    Alcotest.(check int) (Printf.sprintf "n=%d samples" n) n t.samples
  in
  (* p99 of 1000 leaves exactly ten above it; one sample fewer drops to p90 *)
  check 1000 ~p:99.0 ~value:990.0;
  check 999 ~p:90.0 ~value:900.0;
  check 100 ~p:90.0 ~value:90.0;
  check 20 ~p:50.0 ~value:10.0;
  check 19 ~p:100.0 ~value:19.0;
  check 10_000 ~p:99.9 ~value:9990.0;
  Alcotest.(check (float 0.0)) "median" 5.0 (Probe.median (samples 10))

let test_metric_names () =
  let all = Metrics.end_to_end @ Metrics.per_layer in
  List.iter
    (fun (name, _) -> Alcotest.(check bool) ("legal name " ^ name) true (Metrics.valid_name name))
    all;
  Alcotest.(check int) "names unique" (List.length all)
    (List.length (List.sort_uniq compare (List.map fst all)));
  let bench =
    let ic = open_in "../../BENCHMARK.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.of_string s with Ok j -> j | Error e -> Alcotest.fail e
  in
  let listed key =
    match Option.bind (Json.member key bench) Json.to_list_opt with
    | None -> Alcotest.fail ("BENCHMARK.json: no " ^ key)
    | Some l ->
      List.map
        (fun m ->
          let field k = Option.get (Option.bind (Json.member k m) Json.to_string_opt) in
          (field "name", field "unit"))
        l
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Metrics.end_to_end (listed "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Metrics.per_layer (listed "per_layer");
  let workloads =
    List.map
      (fun w -> Option.get (Option.bind (Json.member "name" w) Json.to_string_opt))
      (Option.get (Option.bind (Json.member "workloads" bench) Json.to_list_opt))
  in
  Alcotest.(check (list string)) "workloads" (List.map fst W.names) workloads

(* Counts of simulated work, and allocation per instruction and per
   event, repeat exactly across two traced units. *)
let test_counts_repeat () =
  let traced_unit () =
    let tr = Probe.create_tracer ~cap:1024 () in
    let res = W.stream_unit (Some tr) in
    let per id denom = Probe.words tr id /. float_of_int denom in
    ( res,
      [
        ("cpu.words_per_instr", per Probe.s_batch tr.Probe.instrs);
        ("engine.words_per_event", per Probe.s_dispatch tr.Probe.events);
        ("alloc_words_per_instr", res.W.words /. res.W.instrs);
      ] )
  in
  let a, wa = traced_unit () in
  let b, wb = traced_unit () in
  let deterministic (name, _) =
    List.exists
      (fun prefix -> String.starts_with ~prefix name)
      [ "monitor."; "load.sim_busy."; "nic."; "scsi."; "pit."; "flight."; "cpu."; "mmu."; "shadow." ]
  in
  let pick r = List.filter deterministic r.W.counts in
  Alcotest.(check bool) "some counts" true (List.length (pick a) > 20);
  Alcotest.(check (list (pair string (float 0.0)))) "counts" (pick a) (pick b);
  Alcotest.(check (list (pair string (float 0.0)))) "words" wa wb;
  Alcotest.(check string) "digest" a.W.digest b.W.digest;
  Alcotest.(check (list string)) "checks pass" [] a.W.problems

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "traced loop matches Machine.run_until" `Quick test_loop_identical;
          Alcotest.test_case "percentile helper" `Quick test_percentiles;
          Alcotest.test_case "metric names" `Quick test_metric_names;
          Alcotest.test_case "deterministic counts repeat" `Quick test_counts_repeat;
        ] );
    ]
