(* Equivalence and lifecycle tests for the persistent domain-pool
   executor (Pipeline.Pool + feed_all_parallel / run_resumable).

   The executor's contract is that parallelism, scheduling mode, cost
   hints, pool reuse, and crash-resume change wall-clock only, never
   output: every drive must match run_seq bit for bit — finalized
   result, words, words_breakdown — and the work counters that are
   window-grid-independent must match too (sampler_evals / memo_hits
   legitimately differ across chunk grids because wider windows
   deduplicate more, so those are filtered like test_checkpoint does). *)

module Edge = Mkc_stream.Edge
module Ss = Mkc_stream.Set_system
module Src = Mkc_stream.Stream_source
module Sink = Mkc_stream.Sink
module Pipe = Mkc_stream.Pipeline
module Ck = Mkc_stream.Checkpoint
module P = Mkc_core.Params
module E = Mkc_core.Estimate

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

(* Work counters minus the chunk-grid-dependent memoization families. *)
let has_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let grid_free_stats est =
  List.map
    (fun (inst, stats) ->
      ( inst,
        List.filter
          (fun (k, _) ->
            not (has_suffix ~suffix:"sampler_evals" k || has_suffix ~suffix:"memo_hits" k))
          stats ))
    (E.stats est)

let with_tmp f =
  let path = Filename.temp_file "mkc_pool_ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* The whole-observable comparison every test below reduces to. *)
let assert_matches label ~ref_est ~ref_r est r =
  checkb (label ^ ": bit-for-bit result") true (fingerprint r = fingerprint ref_r);
  checki (label ^ ": same words") (E.words ref_est) (E.words est);
  checkb (label ^ ": same breakdown") true
    (E.words_breakdown est = E.words_breakdown ref_est);
  checkb (label ^ ": same grid-free stats") true
    (grid_free_stats est = grid_free_stats ref_est)

(* A pooled drive of [est]'s shards with its static cost hints, then
   finalize. *)
let drive_shards ?pool ?domains ?schedule ?chunk est src =
  Pipe.feed_all_parallel ?pool ?domains ?schedule ?chunk ~costs:(E.shard_costs est)
    (E.shards est) src;
  E.finalize est

(* --- pool drive ≡ run_seq across the domains × chunk matrix --- *)

let test_pool_equiv_matrix () =
  let src, p = instance () in
  let ref_est = E.create p in
  let ref_r = Pipe.run_seq E.sink ref_est src in
  List.iter
    (fun domains ->
      List.iter
        (fun chunk ->
          let est = E.create p in
          let r = drive_shards ~domains ~chunk est src in
          assert_matches
            (Printf.sprintf "%d domains, chunk %d" domains chunk)
            ~ref_est ~ref_r est r)
        [ 64; 257; 1024 ])
    [ 1; 2; 4 ]

let test_pool_adaptive_equiv () =
  let src, p = instance () in
  let ref_est = E.create p in
  let ref_r = Pipe.run_seq E.sink ref_est src in
  List.iter
    (fun domains ->
      (* small chunk → many windows → the adaptive scheduler actually
         re-packs; output must not move *)
      let est = E.create p in
      let r = drive_shards ~domains ~schedule:Pipe.Adaptive ~chunk:64 est src in
      assert_matches
        (Printf.sprintf "adaptive, %d domains" domains)
        ~ref_est ~ref_r est r)
    [ 2; 4 ]

(* --- pool lifecycle: reuse across drives, stats, shutdown --- *)

let test_pool_reuse_and_stats () =
  let src, p = instance () in
  let ref_est = E.create p in
  let ref_r = Pipe.run_seq E.sink ref_est src in
  let pool = Pipe.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Pipe.Pool.shutdown pool)
    (fun () ->
      checki "pool size" 3 (Pipe.Pool.size pool);
      let e1 = E.create p in
      let r1 = drive_shards ~pool ~chunk:128 e1 src in
      let s1 = Pipe.Pool.stats pool in
      (* second drive through the SAME pool, different chunk grid and
         scheduler — workers are reused, not respawned *)
      let e2 = E.create p in
      let r2 = drive_shards ~pool ~chunk:64 ~schedule:Pipe.Adaptive e2 src in
      let s2 = Pipe.Pool.stats pool in
      (* a [domains] cap below the pool size also preserves output *)
      let e3 = E.create p in
      let r3 = drive_shards ~pool ~domains:2 ~chunk:128 e3 src in
      assert_matches "pooled drive 1" ~ref_est ~ref_r e1 r1;
      assert_matches "pooled drive 2 (adaptive)" ~ref_est ~ref_r e2 r2;
      assert_matches "pooled drive 3 (capped)" ~ref_est ~ref_r e3 r3;
      checkb "windows counted" true (s1.Pipe.Pool.windows > 0);
      checkb "windows accumulate across drives" true
        (s2.Pipe.Pool.windows > s1.Pipe.Pool.windows);
      checki "one stat slot per worker" 2 (Array.length s1.Pipe.Pool.worker_busy_ns);
      checki "one wait slot per worker" 2 (Array.length s1.Pipe.Pool.worker_wait_ns);
      let monotone a b = Array.for_all2 (fun x y -> y >= x) a b in
      checkb "busy gauges cumulative" true
        (monotone s1.Pipe.Pool.worker_busy_ns s2.Pipe.Pool.worker_busy_ns);
      checkb "wait gauges cumulative" true
        (monotone s1.Pipe.Pool.worker_wait_ns s2.Pipe.Pool.worker_wait_ns));
  (* shutdown is idempotent, including after with-protect already ran *)
  Pipe.Pool.shutdown pool

let test_pool_empty_and_errors () =
  let _, p = instance () in
  let empty = Src.of_array [||] in
  let est = E.create p in
  let r = drive_shards ~domains:2 est empty in
  let est0 = E.create p in
  let r0 = Pipe.run_seq E.sink est0 empty in
  checkb "empty stream: same result" true (fingerprint r = fingerprint r0);
  (* a costs vector that does not match the shard count is a caller bug *)
  let src, _ = instance () in
  let bad = E.create p in
  checkb "mismatched costs rejected" true
    (try
       Pipe.feed_all_parallel ~domains:2 ~costs:[| 1.0 |] (E.shards bad) src;
       false
     with Invalid_argument _ -> true)

(* --- crash-resume through the pooled resumable driver --- *)

let test_pool_resumable () =
  let src, p = instance () in
  let edges = Src.to_array src in
  let n = Array.length edges in
  let ref_est = E.create p in
  let ref_r = Pipe.run_seq E.sink ref_est src in
  let chunk = 96 in
  (* uninterrupted resumable run: same observables as run_seq *)
  with_tmp (fun path ->
      let e1 = E.create p in
      match
        Pipe.run_resumable ~domains:2 ~chunk ~every:1 ~checkpoint:path
          (E.codec p) e1 ~shards:E.shards ~finalize:E.finalize src
      with
      | Error e -> Alcotest.failf "uninterrupted: %s" (Ck.error_to_string e)
      | Ok r1 -> assert_matches "uninterrupted resumable" ~ref_est ~ref_r e1 r1);
  (* crash partway (not necessarily on the window grid: the prefix
     driver saves once more at its end-of-stream), resume, finish *)
  List.iter
    (fun (cut, schedule, label) ->
      with_tmp (fun path ->
          let interrupted = E.create p in
          (match
             Pipe.run_resumable ~domains:2 ~chunk ~every:1 ~checkpoint:path
               (E.codec p) interrupted ~shards:E.shards ~finalize:E.finalize
               (Src.of_array (Array.sub edges 0 cut))
           with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s prefix: %s" label (Ck.error_to_string e));
          let resumed = E.create p in
          match
            Pipe.run_resumable ~domains:2 ~schedule ~chunk ~resume:path
              (E.codec p) resumed ~shards:E.shards ~finalize:E.finalize src
          with
          | Error e -> Alcotest.failf "%s resume: %s" label (Ck.error_to_string e)
          | Ok r -> assert_matches label ~ref_est ~ref_r resumed r))
    [
      (chunk * 2, Pipe.Static, "resume at a window boundary");
      (min n ((chunk * 2 * 3) + 17), Pipe.Static, "resume off the window grid");
      (chunk * 4, Pipe.Adaptive, "resume under the adaptive scheduler");
    ]

(* A real crash mid-run, through the one resumable driver: the save
   hook raises once a checkpoint at or past [crash_at] lands, so the
   file holds the last save before the "crash" — every [every] windows,
   or the end-of-stream save — and the resumed run finishes from it.
   domains × every × crash position, each against run_seq. *)
exception Crash

let test_resumable_crash_matrix () =
  let src, p = instance () in
  let n = Src.length src in
  let ref_est = E.create p in
  let ref_r = Pipe.run_seq E.sink ref_est src in
  let chunk = 64 in
  List.iter
    (fun domains ->
      List.iter
        (fun every ->
          List.iter
            (fun crash_at ->
              let label =
                Printf.sprintf "%d domains, every %d, crash at %d" domains every crash_at
              in
              with_tmp (fun path ->
                  let crashed = E.create p in
                  let on_save ~pos ~bytes:_ ~words:_ = if pos >= crash_at then raise Crash in
                  (match
                     Pipe.run_resumable ~domains ~chunk ~every ~checkpoint:path ~on_save
                       (E.codec p) crashed ~shards:E.shards ~finalize:E.finalize src
                   with
                  | exception Crash -> ()
                  | _ -> Alcotest.failf "%s: the drive did not crash" label);
                  let resumed = E.create p in
                  match
                    Pipe.run_resumable ~domains ~chunk ~resume:path (E.codec p) resumed
                      ~shards:E.shards ~finalize:E.finalize src
                  with
                  | Error e -> Alcotest.failf "%s: %s" label (Ck.error_to_string e)
                  | Ok r -> assert_matches label ~ref_est ~ref_r resumed r))
            [ 1; n / 3; (2 * n) / 3; n ])
        [ 1; 2; 5 ])
    [ 1; 2 ]

(* --- property: the matrix law on random streams --- *)

let prop_pool_equals_seq =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 1 200) (pair (int_range 0 31) (int_range 0 63)))
        (int_range 1 64) (int_range 0 3))
  in
  let arb =
    QCheck.make
      ~print:(fun (edges, chunk, pick) ->
        Printf.sprintf "%d edges, chunk %d, pick %d" (List.length edges) chunk pick)
      gen
  in
  QCheck.Test.make
    ~name:"pool feed_all_parallel ≡ run_seq (domains × chunk × schedule, random streams)"
    ~count:30 arb (fun (pairs, chunk, pick) ->
      let edges =
        Array.of_list (List.map (fun (s, e) -> Edge.make ~set:s ~elt:e) pairs)
      in
      let src = Src.of_array edges in
      let p = P.make ~m:32 ~n:64 ~k:3 ~alpha:4.0 ~seed:5 () in
      let domains = [| 1; 2; 4; 2 |].(pick) in
      let schedule = if pick = 3 then Pipe.Adaptive else Pipe.Static in
      let ref_est = E.create p in
      let r0 = Pipe.run_seq E.sink ref_est src in
      let est = E.create p in
      let r = drive_shards ~domains ~schedule ~chunk est src in
      fingerprint r = fingerprint r0
      && E.words est = E.words ref_est
      && E.words_breakdown est = E.words_breakdown ref_est
      && grid_free_stats est = grid_free_stats ref_est)

(* Mid-run checkpoint + resume through the pooled resumable driver on
   random streams: crash at a pseudo-random cut, resume, and the result
   must match the sequential reference exactly. *)
let prop_pool_crash_resume =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 2 200) (pair (int_range 0 31) (int_range 0 63)))
        (int_range 1 48))
  in
  let arb =
    QCheck.make
      ~print:(fun (edges, chunk) ->
        Printf.sprintf "%d edges, chunk %d" (List.length edges) chunk)
      gen
  in
  QCheck.Test.make
    ~name:"pool crash at a checkpoint + resume ≡ run_seq (random streams)" ~count:15
    arb (fun (pairs, chunk) ->
      let edges =
        Array.of_list (List.map (fun (s, e) -> Edge.make ~set:s ~elt:e) pairs)
      in
      let n = Array.length edges in
      let src = Src.of_array edges in
      let p = P.make ~m:32 ~n:64 ~k:3 ~alpha:4.0 ~seed:5 () in
      let ref_est = E.create p in
      let r0 = Pipe.run_seq E.sink ref_est src in
      let cut = 1 + ((n * 7919) mod (n - 1)) in
      with_tmp (fun path ->
          let interrupted = E.create p in
          (match
             Pipe.run_resumable ~domains:2 ~chunk ~every:1 ~checkpoint:path
               (E.codec p) interrupted ~shards:E.shards ~finalize:E.finalize
               (Src.of_array (Array.sub edges 0 cut))
           with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "prefix: %s" (Ck.error_to_string e));
          let resumed = E.create p in
          match
            Pipe.run_resumable ~domains:2 ~chunk ~resume:path (E.codec p)
              resumed ~shards:E.shards ~finalize:E.finalize src
          with
          | Error e -> Alcotest.failf "resume: %s" (Ck.error_to_string e)
          | Ok r ->
              fingerprint r = fingerprint r0
              && E.words resumed = E.words ref_est
              && E.words_breakdown resumed = E.words_breakdown ref_est
              && grid_free_stats resumed = grid_free_stats ref_est))

let suite =
  [
    Alcotest.test_case "pool ≡ run_seq across domains × chunks" `Quick
      test_pool_equiv_matrix;
    Alcotest.test_case "adaptive schedule ≡ run_seq" `Quick test_pool_adaptive_equiv;
    Alcotest.test_case "pool reuse across drives + stats" `Quick
      test_pool_reuse_and_stats;
    Alcotest.test_case "empty stream and cost-vector errors" `Quick
      test_pool_empty_and_errors;
    Alcotest.test_case "pooled checkpoint/resume" `Quick test_pool_resumable;
    Alcotest.test_case "resumable crash: domains × every × position" `Quick
      test_resumable_crash_matrix;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_pool_equals_seq; prop_pool_crash_resume ]
