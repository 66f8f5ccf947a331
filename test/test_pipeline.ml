(* Equivalence tests for the Sink/Pipeline ingestion layer.

   The whole layer rests on two guarantees:
     1. feed_planned ≡ edge-by-edge feed (any chunk size), and
     2. domain-parallel shard ingestion ≡ sequential ingestion,
   both bit-for-bit: identical finalized results and identical space
   accounting.  Every sink and every batched sketch is checked. *)

module Edge = Mkc_stream.Edge
module Ss = Mkc_stream.Set_system
module Src = Mkc_stream.Stream_source
module Sink = Mkc_stream.Sink
module Pipe = Mkc_stream.Pipeline
module P = Mkc_core.Params
module E = Mkc_core.Estimate
module Sm = Mkc_hashing.Splitmix

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let instance () =
  let n = 512 and m = 128 and k = 4 and seed = 3 in
  let pl = Mkc_workload.Planted.few_large ~n ~m ~k ~seed in
  let sys = pl.Mkc_workload.Planted.system in
  let src = Src.of_array (Ss.edge_stream ~seed:(seed + 7) sys) in
  (src, P.make ~m ~n ~k ~alpha:4.0 ~seed ())

let fingerprint (r : E.result) =
  let witness =
    match r.E.outcome with
    | None -> []
    | Some o -> List.sort compare (o.Mkc_core.Solution.witness ())
  in
  (r.E.estimate, r.E.z_guess, witness)

(* --- estimate / report / full-range sinks --- *)

let test_estimate_batched_equivalence () =
  let src, params = instance () in
  let est0 = E.create params in
  let r0 = Pipe.run_seq E.sink est0 src in
  List.iter
    (fun chunk ->
      let est = E.create params in
      let r = Pipe.run ~chunk E.sink est src in
      checkb (Printf.sprintf "chunk %d: same result" chunk) true
        (fingerprint r = fingerprint r0);
      checki (Printf.sprintf "chunk %d: same words" chunk) (E.words est0) (E.words est);
      checkb (Printf.sprintf "chunk %d: same breakdown" chunk) true
        (E.words_breakdown est = E.words_breakdown est0))
    [ 1; 7; 1024 ]

let test_estimate_parallel_equivalence () =
  let src, params = instance () in
  let est0 = E.create params in
  let r0 = Pipe.run_seq E.sink est0 src in
  List.iter
    (fun domains ->
      let est = E.create params in
      Pipe.feed_all_parallel ~domains (E.shards est) src;
      let r = E.finalize est in
      checkb (Printf.sprintf "%d domains: bit-for-bit result" domains) true
        (fingerprint r = fingerprint r0);
      checki (Printf.sprintf "%d domains: same words" domains) (E.words est0)
        (E.words est))
    [ 2; 3 ]

let test_report_batched_and_parallel () =
  let src, params = instance () in
  let module R = Mkc_core.Report in
  let r0 = Pipe.run_seq R.sink (R.create params) src in
  let r1 = Pipe.run ~chunk:37 R.sink (R.create params) src in
  let rep2 = R.create params in
  Pipe.feed_all_parallel ~domains:2 (R.shards rep2) src;
  let r2 = R.finalize rep2 in
  checkb "batched: same sets" true (r1.R.sets = r0.R.sets);
  checkb "batched: same estimate" true (r1.R.estimate = r0.R.estimate);
  checkb "parallel: same sets" true (r2.R.sets = r0.R.sets);
  checkb "parallel: same estimate" true (r2.R.estimate = r0.R.estimate)

(* Both Full_range bodies — the constant-factor [Mv] engine (α = 2,
   which ignores the plan) and the sketching [Rep] engine (α = 8) —
   chunked at sizes from one edge to one whole-stream chunk. *)
let test_full_range_sink_both_engines () =
  let src, _ = instance () in
  let module F = Mkc_core.Full_range in
  List.iter
    (fun (alpha, engine) ->
      let p = P.make ~m:128 ~n:512 ~k:4 ~alpha ~seed:3 () in
      let fr0 = F.create p in
      checkb (Printf.sprintf "alpha %g: engine" alpha) true (F.engine fr0 = engine);
      let r0 = Pipe.run_seq F.sink fr0 src in
      List.iter
        (fun chunk ->
          let fr1 = F.create p in
          let r1 = Pipe.run ~chunk F.sink fr1 src in
          checkb (Printf.sprintf "alpha %g, chunk %d: result" alpha chunk) true (r1 = r0);
          checki (Printf.sprintf "alpha %g, chunk %d: words" alpha chunk) (F.words fr0)
            (F.words fr1))
        [ 1; 7; 97; Pipe.default_chunk ];
      let fr2 = F.create p in
      Pipe.feed_all_parallel ~domains:2 (F.shards fr2) src;
      checkb (Printf.sprintf "alpha %g: parallel" alpha) true (F.finalize fr2 = r0))
    [ (2.0, F.Constant_factor); (8.0, F.Sketching) ]

(* --- batched sketches --- *)

let ids = Array.init 3000 (fun i -> ((i * 7919) + 13) mod 257)

let test_l0_add_batch () =
  let mk () = Mkc_sketch.L0_bjkst.create ~seed:(Sm.create 5) () in
  let a = mk () and b = mk () in
  Array.iter (Mkc_sketch.L0_bjkst.add a) ids;
  Mkc_sketch.L0_bjkst.add_batch b ids ~pos:0 ~len:(Array.length ids);
  checkb "same estimate" true
    (Mkc_sketch.L0_bjkst.estimate a = Mkc_sketch.L0_bjkst.estimate b);
  checki "same level" (Mkc_sketch.L0_bjkst.level a) (Mkc_sketch.L0_bjkst.level b);
  checki "same words" (Mkc_sketch.L0_bjkst.words a) (Mkc_sketch.L0_bjkst.words b)

let test_f2_ams_add_batch () =
  let mk () = Mkc_sketch.F2_ams.create ~seed:(Sm.create 9) () in
  let a = mk () and b = mk () in
  Array.iter (fun i -> Mkc_sketch.F2_ams.add a i 2) ids;
  Mkc_sketch.F2_ams.add_batch b ids ~pos:0 ~len:(Array.length ids) ~delta:2;
  checkb "same estimate" true
    (Mkc_sketch.F2_ams.estimate a = Mkc_sketch.F2_ams.estimate b)

let test_count_sketch_add_batch () =
  let mk () = Mkc_sketch.Count_sketch.create ~width:64 ~seed:(Sm.create 17) () in
  let a = mk () and b = mk () in
  Array.iter (fun i -> Mkc_sketch.Count_sketch.add a i 1) ids;
  Mkc_sketch.Count_sketch.add_batch b ids ~pos:0 ~len:(Array.length ids) ~delta:1;
  for i = 0 to 20 do
    checkb "same point estimate" true
      (Mkc_sketch.Count_sketch.estimate a i = Mkc_sketch.Count_sketch.estimate b i)
  done;
  checkb "same F2 estimate" true
    (Mkc_sketch.Count_sketch.f2_estimate a = Mkc_sketch.Count_sketch.f2_estimate b)

let test_f2_heavy_hitter_add_batch () =
  let mk () = Mkc_sketch.F2_heavy_hitter.create ~phi:0.05 ~seed:(Sm.create 23) () in
  let a = mk () and b = mk () in
  Array.iter (fun i -> Mkc_sketch.F2_heavy_hitter.add a i 1) ids;
  Mkc_sketch.F2_heavy_hitter.add_batch b ids ~pos:0 ~len:(Array.length ids) ~delta:1;
  checkb "same hits" true
    (Mkc_sketch.F2_heavy_hitter.hits a = Mkc_sketch.F2_heavy_hitter.hits b);
  checkb "same candidates" true
    (Mkc_sketch.F2_heavy_hitter.candidates a = Mkc_sketch.F2_heavy_hitter.candidates b)

let test_f2_contributing_add_batch () =
  let mk () =
    Mkc_sketch.F2_contributing.create ~gamma:0.1 ~r:64 ~indep:4 ~seed:(Sm.create 29) ()
  in
  let a = mk () and b = mk () in
  Array.iter (fun i -> Mkc_sketch.F2_contributing.add a i 1) ids;
  Mkc_sketch.F2_contributing.add_batch b ids ~pos:0 ~len:(Array.length ids) ~delta:1;
  checkb "same hits" true
    (Mkc_sketch.F2_contributing.hits a = Mkc_sketch.F2_contributing.hits b);
  checkb "same candidates" true
    (Mkc_sketch.F2_contributing.candidates a = Mkc_sketch.F2_contributing.candidates b)

(* --- coverage baselines --- *)

let test_mcgregor_vu_sink () =
  let src, _ = instance () in
  let module Mv = Mkc_coverage.Mcgregor_vu in
  let mk () = Mv.create ~m:128 ~n:512 ~k:4 ~seed:3 () in
  let a = mk () in
  let ra = Pipe.run_seq Mv.sink a src in
  List.iter
    (fun chunk ->
      let b = mk () in
      let rb = Pipe.run ~chunk Mv.sink b src in
      checkb (Printf.sprintf "chunk %d ≡ per-edge" chunk) true (ra = rb);
      checki (Printf.sprintf "chunk %d: words" chunk) (Mv.words a) (Mv.words b))
    [ 1; 7; 11; Pipe.default_chunk ]

let baseline_system () =
  Ss.create ~n:12 ~m:4
    ~sets:[| [| 0; 1; 2; 3; 4 |]; [| 4; 5; 6 |]; [| 7; 8 |]; [| 0; 9; 10; 11 |] |]

let test_set_arrival_adapter_sieve () =
  let sys = baseline_system () in
  let module Sieve = Mkc_coverage.Sieve in
  let direct = Sieve.create ~n:(Ss.n sys) ~k:2 () in
  for i = 0 to Ss.m sys - 1 do
    Sieve.feed direct i (Ss.set sys i)
  done;
  let r0 = Sieve.result direct in
  (* canonical set-major edge order: each set arrives as one contiguous
     run, so the adapter reassembles exactly the direct arrivals *)
  let t = Sieve.create ~n:(Ss.n sys) ~k:2 () in
  let r1 =
    Pipe.run ~chunk:3 (Sink.Set_arrival.sink ()) (Sieve.edge_sink t)
      (Src.of_array (Ss.edges sys))
  in
  checkb "adapter ≡ direct set feed" true (r0 = r1)

let test_set_arrival_adapter_mv () =
  let sys = baseline_system () in
  let module M = Mkc_coverage.Mv_set_arrival in
  let direct = M.create ~k:2 () in
  for i = 0 to Ss.m sys - 1 do
    M.feed direct i (Ss.set sys i)
  done;
  let r0 = M.result direct in
  let t = M.create ~k:2 () in
  let r1 =
    Pipe.run ~chunk:5 (Sink.Set_arrival.sink ()) (M.edge_sink t)
      (Src.of_array (Ss.edges sys))
  in
  checkb "adapter ≡ direct set feed" true (r0 = r1)

(* --- property: batching/parallelism never changes the estimate --- *)

let prop_batched_equals_sequential =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 200)
           (pair (int_range 0 31) (int_range 0 63)))
        (int_range 1 64))
  in
  let arb =
    QCheck.make
      ~print:(fun (edges, chunk) ->
        Printf.sprintf "%d edges, chunk %d" (List.length edges) chunk)
      gen
  in
  QCheck.Test.make ~name:"feed_planned ≡ feed for Estimate (random streams)" ~count:30
    arb (fun (pairs, chunk) ->
      let edges =
        Array.of_list (List.map (fun (s, e) -> Edge.make ~set:s ~elt:e) pairs)
      in
      let src = Src.of_array edges in
      let params = P.make ~m:32 ~n:64 ~k:3 ~alpha:4.0 ~seed:5 () in
      let r0 = Pipe.run_seq E.sink (E.create params) src in
      let r1 = Pipe.run ~chunk E.sink (E.create params) src in
      let est2 = E.create params in
      Pipe.feed_all_parallel ~domains:2 (E.shards est2) src;
      let r2 = E.finalize est2 in
      fingerprint r0 = fingerprint r1 && fingerprint r0 = fingerprint r2)

let suite =
  [
    Alcotest.test_case "estimate: batched ≡ per-edge" `Quick test_estimate_batched_equivalence;
    Alcotest.test_case "estimate: parallel ≡ sequential" `Quick
      test_estimate_parallel_equivalence;
    Alcotest.test_case "report: batched/parallel ≡ per-edge" `Quick
      test_report_batched_and_parallel;
    Alcotest.test_case "full-range: both engines via sink" `Quick
      test_full_range_sink_both_engines;
    Alcotest.test_case "l0_bjkst add_batch" `Quick test_l0_add_batch;
    Alcotest.test_case "f2_ams add_batch" `Quick test_f2_ams_add_batch;
    Alcotest.test_case "count_sketch add_batch" `Quick test_count_sketch_add_batch;
    Alcotest.test_case "f2_heavy_hitter add_batch" `Quick test_f2_heavy_hitter_add_batch;
    Alcotest.test_case "f2_contributing add_batch" `Quick test_f2_contributing_add_batch;
    Alcotest.test_case "mcgregor-vu sink" `Quick test_mcgregor_vu_sink;
    Alcotest.test_case "set-arrival adapter: sieve" `Quick test_set_arrival_adapter_sieve;
    Alcotest.test_case "set-arrival adapter: mv" `Quick test_set_arrival_adapter_mv;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_batched_equals_sequential ]
