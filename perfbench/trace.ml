(* The traced run of perfbench: drives each layer of the library through
   its public entry points on one generated input and reports per-layer
   figures.

   A round loads the stream, times an untraced Estimate drive, then
   repeats the same drive layer by layer — Chunk_plan.build, then per
   (z, rep) instance Universe_reduction.apply_batch and the
   Large_common / Large_set / Small_set feed_planned calls — with a span
   around every call.  It then times finalize, checkpoint encode, a
   pooled drive and a windowed drive.  Spans (name, start, end, parent,
   minor words) stay in memory and are written out as JSON at the end.
   Rounds repeat while the time budget allows; each metric is the
   median over rounds.  The last line of stdout is one JSON object:
   {"attempted": _, "failed": _, "metrics": {name: {"value", "unit"}}}. *)

module Est = Mkc_core.Estimate
module Params = Mkc_core.Params
module Plan = Mkc_stream.Chunk_plan
module Src = Mkc_stream.Stream_source
module Pipeline = Mkc_stream.Pipeline
module Splitmix = Mkc_hashing.Splitmix

let now = Mkc_obs.Clock.now_ns

(* ---------- spans ---------- *)

type span = {
  id : int;
  round : int;
  name : string;
  parent : int; (* -1 at the top *)
  start_ns : int;
  end_ns : int;
  minor_words : float;
}

let spans = ref []
let next_id = ref 0
let open_ids = ref []
let round_no = ref 0

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ids with p :: _ -> p | [] -> -1 in
  open_ids := id :: !open_ids;
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  open_ids := List.tl !open_ids;
  spans :=
    { id; round = !round_no; name; parent; start_ns = t0; end_ns = t1; minor_words = w1 -. w0 }
    :: !spans;
  r

(* Summed duration of this round's spans called [name]. *)
let total_ns name =
  List.fold_left
    (fun acc s -> if s.round = !round_no && s.name = name then acc + (s.end_ns - s.start_ns) else acc)
    0 !spans

let total_minor name =
  List.fold_left
    (fun acc s -> if s.round = !round_no && s.name = name then acc +. s.minor_words else acc)
    0.0 !spans

let write_spans path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"round\": %d, \"name\": %S, \"parent\": %d, \"start_ns\": %d, \
         \"end_ns\": %d, \"minor_words\": %.0f}\n"
        (if i = 0 then "" else ",")
        s.id s.round s.name s.parent s.start_ns s.end_ns s.minor_words)
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc

(* ---------- the layers of one Estimate, built as Estimate.create builds them ---------- *)

type inst = {
  reduction : Mkc_core.Universe_reduction.t;
  lc : Mkc_core.Large_common.t;
  ls : Mkc_core.Large_set.t;
  ss : Mkc_core.Small_set.t option;
}

let layers (p : Params.t) ladder =
  let root = Splitmix.create p.base_seed in
  List.concat_map
    (fun z ->
      List.init p.z_repeats (fun rep ->
          let sd = Splitmix.fork root ((z * 131) + rep) in
          let pz = Params.with_universe p z and osd = Splitmix.fork sd 1 in
          let heavy = Params.s_alpha pz >= 2.0 *. float_of_int p.k in
          let w = if heavy then p.k else max 1 (min p.k (int_of_float (Float.round p.alpha))) in
          {
            reduction = Mkc_core.Universe_reduction.create ~z ~seed:(Splitmix.fork sd 0);
            lc = Mkc_core.Large_common.create pz ~seed:(Splitmix.fork osd 1);
            ls = Mkc_core.Large_set.create pz ~w ~seed:(Splitmix.fork osd 2);
            ss = (if heavy then None else Some (Mkc_core.Small_set.create pz ~seed:(Splitmix.fork osd 3)));
          }))
    ladder
  |> Array.of_list

let stat key l = Option.value ~default:0 (List.assoc_opt key l)

let sum insts f = Array.fold_left (fun acc i -> acc + f i) 0 insts
let sum_ss insts f = sum insts (fun i -> match i.ss with Some ss -> f ss | None -> 0)

(* ---------- one round ---------- *)

let chunk = Pipeline.default_chunk
let pool_domains = 2

let round ~path ~k ~alpha ~window ~epoch_edges check =
  let metrics = ref [] in
  let put name unit v = metrics := (name, (v, unit)) :: !metrics in
  let src, m, n = span "stream_source.load" (fun () -> Src.load_auto_dims path) in
  let edges = Src.length src in
  let fe = float_of_int edges in
  put "stream_source.load_ns_per_edge" "ns/edge" (float_of_int (total_ns "stream_source.load") /. fe);
  put "stream_source.load_words_per_edge" "words/edge"
    (float_of_int (Obj.reachable_words (Obj.repr (Src.backing src))) /. fe);
  let p = Params.make ~m ~n ~k ~alpha ~seed:1 () in
  let est = span "windowed.epoch_create" (fun () -> Est.create p) in
  put "windowed.epoch_create_s" "s" (float_of_int (total_ns "windowed.epoch_create") /. 1e9);
  (* One pass over the chunks drives the estimator untraced and, on
     the same plan, its layers one span per call — the traced drive.
     Which of the two goes first alternates by chunk, so neither gains
     from the other having warmed the caches. *)
  let insts = layers p (Est.guesses est) in
  let plan = Plan.create () and red = ref [||] and distinct = ref 0 in
  let untraced_ns = ref 0 and traced_ns = ref 0 and parity = ref 0 in
  let untraced es ~pos ~len =
    let t0 = now () in
    Est.feed_planned est plan es ~pos ~len;
    untraced_ns := !untraced_ns + (now () - t0)
  in
  let traced es ~pos ~len =
    let t0 = now () in
    let ne = Plan.num_elts plan and elts = Plan.elts plan in
    if Array.length !red < ne then red := Array.make ne 0;
    let red = !red in
    Array.iter
      (fun i ->
        span "universe_reduction" (fun () ->
            Mkc_core.Universe_reduction.apply_batch i.reduction elts ~pos:0 ~len:ne red);
        span "large_common" (fun () ->
            Mkc_core.Large_common.feed_planned i.lc plan ~red es ~pos ~len);
        span "large_set" (fun () -> Mkc_core.Large_set.feed_planned i.ls plan ~red es ~pos ~len);
        Option.iter
          (fun ss ->
            span "small_set" (fun () -> Mkc_core.Small_set.feed_planned ss plan ~red es ~pos ~len))
          i.ss)
      insts;
    traced_ns := !traced_ns + (now () - t0)
  in
  let gc0 = Gc.quick_stat () in
  span "drive" (fun () ->
      Src.chunks ~chunk
        (fun es ~pos ~len ->
          span "chunk_plan.build" (fun () -> Plan.build plan es ~pos ~len);
          distinct := !distinct + Plan.num_elts plan + Plan.num_sets plan;
          incr parity;
          if !parity land 1 = 1 then begin
            untraced es ~pos ~len;
            traced es ~pos ~len
          end
          else begin
            traced es ~pos ~len;
            untraced es ~pos ~len
          end)
        src);
  let gc1 = Gc.quick_stat () in
  let per_edge name = float_of_int (total_ns name) /. fe in
  put "chunk_plan.build_ns_per_edge" "ns/edge" (per_edge "chunk_plan.build");
  put "chunk_plan.distinct_ids_per_edge" "ratio" (float_of_int !distinct /. (2.0 *. fe));
  put "universe_reduction.ns_per_edge" "ns/edge" (per_edge "universe_reduction");
  put "large_common.ns_per_edge" "ns/edge" (per_edge "large_common");
  put "large_set.ns_per_edge" "ns/edge" (per_edge "large_set");
  put "small_set.ns_per_edge" "ns/edge" (per_edge "small_set");
  let lc_evals = sum insts (fun i -> Mkc_core.Large_common.sampler_evals i.lc) in
  let lc_hits = sum insts (fun i -> stat "memo_hits" (Mkc_core.Large_common.stats i.lc)) in
  let f2 = sum insts (fun i -> stat "f2_updates" (Mkc_core.Large_set.stats i.ls)) in
  let pairs = sum_ss insts (fun ss -> stat "pairs_stored" (Mkc_core.Small_set.stats ss)) in
  put "oracle.sampler_evals_per_edge" "count/edge" (float_of_int lc_evals /. fe);
  put "large_common.memo_hit_ratio" "ratio" (float_of_int lc_hits /. float_of_int (max 1 (lc_hits + lc_evals)));
  put "large_set.f2_updates_per_edge" "count/edge" (float_of_int f2 /. fe);
  put "large_set.words" "words" (float_of_int (sum insts (fun i -> Mkc_core.Large_set.words i.ls)));
  put "small_set.pairs_stored" "count" (float_of_int pairs);
  put "small_set.words" "words" (float_of_int (sum_ss insts Mkc_core.Small_set.words));
  (* Minor words from the layer spans alone; major collections over the
     whole interleaved drive, which feeds the stream twice. *)
  let layer_spans = [ "chunk_plan.build"; "universe_reduction"; "large_common"; "large_set"; "small_set" ] in
  put "gc.minor_words_per_edge" "words/edge"
    (List.fold_left (fun acc l -> acc +. total_minor l) 0.0 layer_spans /. fe);
  put "gc.major_collections" "count" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  let layer_ns = List.fold_left (fun acc l -> acc + total_ns l) 0 layer_spans in
  let build_ns = total_ns "chunk_plan.build" in
  let untraced_ns = !untraced_ns + build_ns and traced_ns = !traced_ns + build_ns in
  put "trace.attributed_fraction" "ratio" (float_of_int layer_ns /. float_of_int untraced_ns);
  put "trace.overhead_fraction" "ratio"
    (float_of_int (traced_ns - untraced_ns) /. float_of_int untraced_ns);
  (* The layer-by-layer drive must do exactly the estimator's work. *)
  let totals = Est.stats_totals est in
  let layer_words =
    sum insts (fun i ->
        Mkc_core.Universe_reduction.words i.reduction
        + Mkc_core.Large_common.words i.lc
        + Mkc_core.Large_set.words i.ls
        + match i.ss with Some ss -> Mkc_core.Small_set.words ss | None -> 0)
  in
  check "layer words = Estimate.words" (layer_words = Est.words est);
  check "layer sampler evals = Estimate stats" (lc_evals = stat "sampler_evals" totals);
  check "layer f2 updates = Estimate stats" (f2 = stat "large_set.f2_updates" totals);
  check "layer stored pairs = Estimate stats" (pairs = stat "small_set.pairs_stored" totals);
  let r = span "estimate.finalize" (fun () -> Est.finalize est) in
  put "estimate.finalize_s" "s" (float_of_int (total_ns "estimate.finalize") /. 1e9);
  let words = Est.words est in
  let bytes =
    span "checkpoint.encode" (fun () -> String.length (Mkc_obs.Json.to_string (Est.encode est)))
  in
  put "checkpoint.encode_ns_per_word" "ns/word"
    (float_of_int (total_ns "checkpoint.encode") /. float_of_int words);
  put "checkpoint.bytes_per_word" "bytes/word" (float_of_int bytes /. float_of_int words);
  let rep = Mkc_core.Report.create p in
  check "Report.restore of the estimate state"
    (Mkc_core.Report.restore rep (Est.encode est) = Ok ());
  let rr = span "report.finalize" (fun () -> Mkc_core.Report.finalize rep) in
  put "report.finalize_s" "s" (float_of_int (total_ns "report.finalize") /. 1e9);
  check "Report.finalize = Estimate.finalize" (rr.Mkc_core.Report.estimate = r.Est.estimate);
  (* Pooled drive: the pool's own statistics, and pool = sequential. *)
  let est2 = Est.create p in
  let st =
    span "pool.drive" (fun () ->
        Pipeline.Pool.with_pool ~domains:pool_domains (fun pool ->
            Pipeline.feed_all_parallel ~pool ~costs:(Est.shard_costs est2) ~chunk (Est.shards est2)
              src;
            Pipeline.Pool.stats pool))
  in
  (* Compared after finalize on both sides, as mkc prints them. *)
  let r2 = Est.finalize est2 in
  check "pooled estimate = sequential estimate" (r2.Est.estimate = r.Est.estimate);
  check "pooled words = sequential words" (Est.words est2 = words);
  let sumi = Array.fold_left ( + ) 0 in
  let busy = st.coord_busy_ns :: Array.to_list st.worker_busy_ns in
  let mean_busy = float_of_int (List.fold_left ( + ) 0 busy) /. float_of_int (List.length busy) in
  let workers = max 1 (Array.length st.worker_busy_ns) in
  put "pool.plan_overlap_fraction" "ratio"
    (float_of_int st.plan_overlap_ns /. float_of_int (max 1 st.plan_build_ns));
  put "pool.queue_wait_ns_per_edge" "ns/edge" (float_of_int (sumi st.worker_wait_ns) /. fe);
  put "pool.worker_idle_fraction" "ratio"
    (1.0
    -. float_of_int (sumi st.worker_busy_ns)
       /. float_of_int (max 1 (workers * st.window_wall_ns)));
  put "pool.shard_skew" "ratio"
    (float_of_int (List.fold_left max 0 busy) /. Float.max 1.0 mean_busy);
  (* Windowed drive, as Pipeline.run drives the windowed sink. *)
  let w = Mkc_core.Windowed.create p ~window ~epoch_edges () in
  span "windowed.drive" (fun () ->
      Src.chunks ~chunk
        (fun es ~pos ~len ->
          Plan.build plan es ~pos ~len;
          Mkc_core.Windowed.feed_planned w plan es ~pos ~len)
        src);
  let wr = span "windowed.finalize" (fun () -> Mkc_core.Windowed.finalize w) in
  put "windowed.query_s" "s" (float_of_int (total_ns "windowed.finalize") /. 1e9);
  check "windowed estimate is finite" (Float.is_finite wr.Mkc_core.Windowed.estimate);
  put "gc.top_heap_mb" "MB"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
  List.rev !metrics

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let () =
  let path = ref "" and k = ref 0 and alpha = ref 0.0 and window = ref 0 in
  let epoch_edges = ref 0 and seconds = ref 1.0 and out = ref "" in
  Arg.parse
    [
      ("--input", Arg.Set_string path, "FILE edge stream (text or MKCEDG)");
      ("--k", Arg.Set_int k, "K cover budget");
      ("--alpha", Arg.Set_float alpha, "A approximation target");
      ("--window", Arg.Set_int window, "EPOCHS for the windowed drive");
      ("--epoch-edges", Arg.Set_int epoch_edges, "EDGES per epoch for the windowed drive");
      ("--seconds", Arg.Set_float seconds, "S repeat rounds while they fit in S seconds");
      ("--spans", Arg.Set_string out, "FILE where the spans are written");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "trace.exe --input FILE --k K --alpha A --window W --epoch-edges E [--spans FILE]";
  let attempted = ref 0 and failed = ref 0 in
  let check what ok =
    incr attempted;
    if not ok then begin
      incr failed;
      Printf.printf "check failed: %s\n%!" what
    end
  in
  let t0 = now () and rounds = ref [] and last = ref 0 in
  while
    !rounds = [] || float_of_int (now () - t0 + !last) /. 1e9 <= !seconds
  do
    let r0 = now () in
    rounds :=
      round ~path:!path ~k:!k ~alpha:!alpha ~window:!window ~epoch_edges:!epoch_edges check
      :: !rounds;
    last := now () - r0;
    incr round_no
  done;
  if !out <> "" then write_spans !out;
  let names = List.map fst (List.hd !rounds) in
  let value name = median (List.map (fun r -> fst (List.assoc name r)) !rounds) in
  let unit name = snd (List.assoc name (List.hd !rounds)) in
  Printf.printf "rounds: %d\n" (List.length !rounds);
  let fields =
    List.map
      (fun name ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (value name) (unit name))
      names
  in
  Printf.printf "{\"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" !attempted !failed
    (String.concat ", " fields)
