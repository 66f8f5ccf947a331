(* Hot-path profiler: per-subroutine cost breakdown of the oracle
   ingestion pipeline.  Times each component in isolation (same params,
   same instance mix as Estimate.create) and reports ns/edge plus
   minor-heap words/edge, so hashing vs update vs GC costs are
   attributable — the flat-memory engine's "zero words per edge"
   promise is a line item here, not a guess.  A pool section drives the
   persistent domain-pool executor over the same edges and reports the
   pipelining attribution (plan-build overlap ns/edge, per-worker
   queue-wait, idle fractions) from Pool.stats.

   [run] profiles the BENCH_pipeline workload and writes
   PROFILE_hotpath.json; [run_smoke] is the CI-sized variant (same
   breakdown, a few seconds of wall clock) behind
   PROFILE_hotpath_smoke.json — CI uploads it as an artifact so a
   hot-path regression is visible as a diff of two small JSON files. *)

module P = Mkc_core.Params

let pr fmt = Format.printf fmt

type row = { name : string; seconds : float; ns_per_edge : float; words_per_edge : float }

let time_alloc rows name ~edges f =
  let a0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ();
  let dt = Unix.gettimeofday () -. t0 in
  let alloc = Gc.minor_words () -. a0 in
  let r =
    {
      name;
      seconds = dt;
      ns_per_edge = dt *. 1e9 /. float_of_int edges;
      words_per_edge = alloc /. float_of_int edges;
    }
  in
  pr "  %-28s %7.3fs  %8.1f ns/edge  %6.1f words/edge@." name dt r.ns_per_edge
    r.words_per_edge;
  rows := r :: !rows

let write_json path ~label ~edges ~instances ?pool_json rows =
  let oc = open_out path in
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"label\": %S,\n  \"edges\": %d,\n  \"instances\": %d,\n" label
       edges instances);
  Buffer.add_string b "  \"subroutines\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"name\": %S, \"seconds\": %.6f, \"ns_per_edge\": %.2f, \
            \"words_per_edge\": %.3f }%s\n"
           r.name r.seconds r.ns_per_edge r.words_per_edge
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ],\n";
  (match pool_json with
  | Some pj -> Buffer.add_string b (Printf.sprintf "  \"pool\": %s\n" pj)
  | None -> Buffer.add_string b "  \"pool\": null\n");
  Buffer.add_string b "}\n";
  output_string oc (Buffer.contents b);
  close_out oc;
  pr "wrote %s@." path

let run_with ~label ~json_out ~n ~m ~k ~set_size ~alpha ~seed ~max_edges () =
  Exp_util.header (Printf.sprintf "%s: per-subroutine hot-path breakdown" label);
  let sys = Mkc_workload.Random_inst.uniform ~n ~m ~set_size ~seed in
  let src = Mkc_stream.Stream_source.of_system ~seed:(seed + 1) sys in
  let all = Mkc_stream.Stream_source.to_array src in
  let nedges = min max_edges (Array.length all) in
  let edges = Array.sub all 0 nedges in
  let params = P.make ~m ~n ~k ~alpha ~seed () in
  pr "%d edges, indep=%d@." nedges params.P.indep;
  let root = Mkc_hashing.Splitmix.create params.P.base_seed in
  let zs =
    Mkc_core.Estimate.guesses (Mkc_core.Estimate.create params)
    |> List.concat_map (fun z -> [ (z, 0); (z, 1) ])
  in
  let instances = List.length zs in
  pr "%d instances@." instances;
  let rows = ref [] in
  let time_alloc = time_alloc rows in
  (* universe reduction *)
  let reductions =
    List.map
      (fun (z, rep) ->
        let sd = Mkc_hashing.Splitmix.fork root ((z * 131) + rep) in
        Mkc_core.Universe_reduction.create ~z ~seed:(Mkc_hashing.Splitmix.fork sd 0))
      zs
  in
  let scratch = Array.make nedges (Mkc_stream.Edge.make ~set:0 ~elt:0) in
  time_alloc
    (Printf.sprintf "reduction (%d inst)" instances)
    ~edges:nedges
    (fun () ->
      List.iter
        (fun r ->
          for i = 0 to nedges - 1 do
            scratch.(i) <- Mkc_core.Universe_reduction.apply_edge r edges.(i)
          done)
        reductions);
  (* per-subroutine, with per-instance reduced streams *)
  let comps =
    List.map
      (fun ((z, rep), red) ->
        let sd = Mkc_hashing.Splitmix.fork root ((z * 131) + rep) in
        let osd = Mkc_hashing.Splitmix.fork sd 1 in
        let p = P.with_universe params z in
        let sa = P.s_alpha p in
        let heavy = sa >= 2.0 *. float_of_int p.P.k in
        let w =
          if heavy then p.P.k
          else max 1 (min p.P.k (int_of_float (Float.round p.P.alpha)))
        in
        let reduced =
          Array.map (fun e -> Mkc_core.Universe_reduction.apply_edge red e) edges
        in
        ( Mkc_core.Large_common.create p ~seed:(Mkc_hashing.Splitmix.fork osd 1),
          Mkc_core.Large_set.create p ~w ~seed:(Mkc_hashing.Splitmix.fork osd 2),
          Mkc_core.Small_set.create p ~seed:(Mkc_hashing.Splitmix.fork osd 3),
          reduced ))
      (List.combine zs reductions)
  in
  (* Each subroutine fed its own reduced stream through [feed_planned],
     chunk by chunk: the plan is built over the reduced edges (inside
     the timed row) and the identity table plays [red].  Read each
     "<name>" row against its "<name> planned" row below: both time the
     same entry point, but this one pays a plan per instance and
     chunk, while the planned rows share one plan across instances and
     charge it to "plan build" and the reduction to "reduction
     planned".  The gap is what plan sharing saves. *)
  let chunk = 8192 in
  let nchunks = (nedges + chunk - 1) / chunk in
  let bounds ci =
    let p = ci * chunk in
    (p, min chunk (nedges - p))
  in
  let scratch_plan = Mkc_stream.Chunk_plan.create () in
  let reduced_row name f =
    time_alloc
      (Printf.sprintf "%s (%d inst)" name instances)
      ~edges:nedges
      (fun () ->
        List.iter
          (fun ((_, _, _, reduced) as comp) ->
            for ci = 0 to nchunks - 1 do
              let pos, len = bounds ci in
              Mkc_stream.Chunk_plan.build scratch_plan reduced ~pos ~len;
              f comp scratch_plan ~red:(Mkc_stream.Chunk_plan.elts scratch_plan) reduced
                ~pos ~len
            done)
          comps)
  in
  reduced_row "large_common" (fun (lc, _, _, _) -> Mkc_core.Large_common.feed_planned lc);
  reduced_row "large_set" (fun (_, ls, _, _) -> Mkc_core.Large_set.feed_planned ls);
  reduced_row "small_set" (fun (_, _, ss, _) -> Mkc_core.Small_set.feed_planned ss);
  (* planned (chunk-deduplicated) path: the batched pipeline's actual
     drive — hash decisions once per distinct id per chunk, then O(1)
     table replays.  Fresh components: pruning history must not carry
     over from the reduced-stream rows above. *)
  let plans = Array.init nchunks (fun _ -> Mkc_stream.Chunk_plan.create ()) in
  time_alloc
    (Printf.sprintf "plan build (%d chunks)" nchunks)
    ~edges:nedges
    (fun () ->
      Array.iteri
        (fun ci plan ->
          let p, l = bounds ci in
          Mkc_stream.Chunk_plan.build plan edges ~pos:p ~len:l)
        plans);
  let comps2 =
    List.map
      (fun (z, rep) ->
        let sd = Mkc_hashing.Splitmix.fork root ((z * 131) + rep) in
        let osd = Mkc_hashing.Splitmix.fork sd 1 in
        let p = P.with_universe params z in
        let sa = P.s_alpha p in
        let heavy = sa >= 2.0 *. float_of_int p.P.k in
        let w =
          if heavy then p.P.k
          else max 1 (min p.P.k (int_of_float (Float.round p.P.alpha)))
        in
        ( Mkc_core.Large_common.create p ~seed:(Mkc_hashing.Splitmix.fork osd 1),
          Mkc_core.Large_set.create p ~w ~seed:(Mkc_hashing.Splitmix.fork osd 2),
          Mkc_core.Small_set.create p ~seed:(Mkc_hashing.Splitmix.fork osd 3) ))
      zs
  in
  let red_tbl = ref [] in
  time_alloc
    (Printf.sprintf "reduction planned (%d inst)" instances)
    ~edges:nedges
    (fun () ->
      red_tbl :=
        List.map
          (fun r ->
            Array.map
              (fun plan ->
                let ne = Mkc_stream.Chunk_plan.num_elts plan in
                let out = Array.make ne 0 in
                Mkc_core.Universe_reduction.apply_batch r
                  (Mkc_stream.Chunk_plan.elts plan)
                  ~pos:0 ~len:ne out;
                out)
              plans)
          reductions);
  let planned_row name f =
    time_alloc
      (Printf.sprintf "%s planned (%d inst)" name instances)
      ~edges:nedges
      (fun () ->
        List.iter2
          (fun comp reds ->
            Array.iteri
              (fun ci plan ->
                let p, l = bounds ci in
                f comp plan ~red:reds.(ci) ~pos:p ~len:l)
              plans)
          comps2 !red_tbl)
  in
  planned_row "large_common" (fun (lc, _, _) plan ~red ~pos ~len ->
      Mkc_core.Large_common.feed_planned lc plan ~red edges ~pos ~len);
  planned_row "large_set" (fun (_, ls, _) plan ~red ~pos ~len ->
      Mkc_core.Large_set.feed_planned ls plan ~red edges ~pos ~len);
  planned_row "small_set" (fun (_, _, ss) plan ~red ~pos ~len ->
      Mkc_core.Small_set.feed_planned ss plan ~red edges ~pos ~len);
  (* pool path: the persistent-executor drive of a full Estimate over
     the same edges, attributed from Pool.stats — how much plan-build
     work the coordinator hid behind worker replay, how long tickets
     sat in the mailboxes, and what fraction of the window wall each
     worker spent idle.  On a single-core host the idle fractions
     measure time-sharing, not queue design; read them next to
     [domains_recommended]. *)
  let module PL = Mkc_stream.Pipeline in
  let pool_recommended = Domain.recommended_domain_count () in
  let pool_domains = max 2 (min 4 pool_recommended) in
  let psrc = Mkc_stream.Stream_source.of_array edges in
  let e_pool = Mkc_core.Estimate.create params in
  let pool = PL.Pool.create ~domains:pool_domains () in
  (* ~8 coordinator windows, so plan-build genuinely overlaps worker
     replay instead of degenerating to one window = no pipeline *)
  let pool_chunk = max 1024 (nedges / (8 * pool_domains)) in
  time_alloc
    (Printf.sprintf "pool parallel (%d dom)" pool_domains)
    ~edges:nedges
    (fun () ->
      PL.feed_all_parallel ~pool ~chunk:pool_chunk
        ~costs:(Mkc_core.Estimate.shard_costs e_pool)
        (Mkc_core.Estimate.shards e_pool) psrc);
  let ps = PL.Pool.stats pool in
  PL.Pool.shutdown pool;
  let fe = float_of_int nedges in
  let plan_build_npe = float_of_int ps.PL.Pool.plan_build_ns /. fe in
  let plan_overlap_npe = float_of_int ps.PL.Pool.plan_overlap_ns /. fe in
  let overlap_frac =
    if ps.PL.Pool.plan_build_ns = 0 then 0.0
    else
      float_of_int ps.PL.Pool.plan_overlap_ns
      /. float_of_int ps.PL.Pool.plan_build_ns
  in
  let wall = float_of_int (max 1 ps.PL.Pool.window_wall_ns) in
  let idle_frac busy = Float.max 0.0 (1.0 -. (float_of_int busy /. wall)) in
  pr "  pool: %d windows, plan build %.1f ns/edge (%.1f ns/edge overlapped, %.0f%%)@."
    ps.PL.Pool.windows plan_build_npe plan_overlap_npe (100.0 *. overlap_frac);
  Array.iteri
    (fun i busy ->
      pr "  pool worker %d: queue-wait %.1f ns/edge, idle %.0f%%@." (i + 1)
        (float_of_int ps.PL.Pool.worker_wait_ns.(i) /. fe)
        (100.0 *. idle_frac busy))
    ps.PL.Pool.worker_busy_ns;
  let pool_json =
    let wb = Buffer.create 256 in
    Buffer.add_string wb
      (Printf.sprintf
         "{ \"domains\": %d, \"domains_recommended\": %d, \"windows\": %d,\n\
         \    \"plan_build_ns_per_edge\": %.2f, \"plan_overlap_ns_per_edge\": %.2f, \
          \"plan_overlap_fraction\": %.4f,\n\
         \    \"coord_busy_ns\": %d, \"window_wall_ns\": %d, \"rebalances\": %d,\n\
         \    \"workers\": ["
         pool_domains pool_recommended ps.PL.Pool.windows plan_build_npe
         plan_overlap_npe overlap_frac ps.PL.Pool.coord_busy_ns
         ps.PL.Pool.window_wall_ns ps.PL.Pool.rebalances);
    Array.iteri
      (fun i busy ->
        Buffer.add_string wb
          (Printf.sprintf
             "%s\n      { \"worker\": %d, \"busy_ns\": %d, \"queue_wait_ns\": %d, \
              \"queue_wait_ns_per_edge\": %.2f, \"idle_fraction\": %.4f }"
             (if i = 0 then "" else ",")
             (i + 1) busy
             ps.PL.Pool.worker_wait_ns.(i)
             (float_of_int ps.PL.Pool.worker_wait_ns.(i) /. fe)
             (idle_frac busy)))
      ps.PL.Pool.worker_busy_ns;
    Buffer.add_string wb "\n    ] }";
    Buffer.contents wb
  in
  (* micro: primitive throughputs over 1e6 ops *)
  let ops = 1_000_000 in
  let xs = Array.init ops (fun i -> (i * 2654435761) land 0xFFFFFF) in
  let ph =
    Mkc_hashing.Poly_hash.create ~indep:8 ~range:1024
      ~seed:(Mkc_hashing.Splitmix.create 1)
  in
  let acc = ref 0 in
  time_alloc "poly_hash d=8 (1e6)" ~edges:ops (fun () ->
      for i = 0 to ops - 1 do
        acc := !acc + Mkc_hashing.Poly_hash.hash ph xs.(i)
      done);
  let tab = Mkc_hashing.Tabulation.create ~seed:(Mkc_hashing.Splitmix.create 2) in
  time_alloc "tabulation hash64 (1e6)" ~edges:ops (fun () ->
      for i = 0 to ops - 1 do
        acc := !acc + Int64.to_int (Mkc_hashing.Tabulation.hash64 tab xs.(i))
      done);
  let l0 = Mkc_sketch.L0_bjkst.create ~seed:(Mkc_hashing.Splitmix.create 3) () in
  time_alloc "l0 add (1e6)" ~edges:ops (fun () ->
      for i = 0 to ops - 1 do
        Mkc_sketch.L0_bjkst.add l0 xs.(i)
      done);
  let cs =
    Mkc_sketch.Count_sketch.create ~width:64 ~seed:(Mkc_hashing.Splitmix.create 4) ()
  in
  time_alloc "count_sketch add (1e6)" ~edges:ops (fun () ->
      for i = 0 to ops - 1 do
        Mkc_sketch.Count_sketch.add cs xs.(i) 1
      done);
  ignore !acc;
  write_json json_out ~label ~edges:nedges ~instances ~pool_json (List.rev !rows);
  pr "@."

let run () =
  run_with ~label:"profile" ~json_out:"PROFILE_hotpath.json" ~n:65536 ~m:4096 ~k:32
    ~set_size:256 ~alpha:8.0 ~seed:11 ~max_edges:131072 ()

(* CI-sized smoke run: the same breakdown on a workload small enough
   for the bench-smoke job, so per-subroutine ns/edge and words/edge
   land in the uploaded artifact on every push. *)
let run_smoke () =
  run_with ~label:"profile-smoke" ~json_out:"PROFILE_hotpath_smoke.json" ~n:4096
    ~m:512 ~k:16 ~set_size:64 ~alpha:8.0 ~seed:11 ~max_edges:16384 ()
