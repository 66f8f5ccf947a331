(* Deferred tracked-half state for one (counter, level).  The tracked
   table prunes only when more than 2·cap distinct coordinates are ever
   inserted; while [ever] (distinct supersets ever covered at this
   level) stays within that bound, pruning provably never fires, so
   tracked updates are a pure per-superset sum — accumulated in [pend]
   and applied in bulk by {!flush_level}.  The first chunk that would
   cross the bound flushes and replays per edge; that chunk necessarily
   prunes, and a pruned level ([prunes > 0]) replays per edge forever
   after — so [seen]/[ever] only need to be exact while no prune has
   fired, which makes them reconstructible from the table itself on
   restore/merge (see {!rebuild_defer}). *)
type level_defer = {
  pend : int array; (* sid -> pending signed tracked delta; min_int = not listed *)
  touched : int array; (* sids with a pending sum, compact; reset on flush *)
  mutable ntouched : int;
  seen : bool array; (* sid ever covered at this level *)
  mutable ever : int; (* number of [seen] sids *)
  mutable dirty : bool;
}

type repeat_state = {
  elem_sampler : Mkc_sketch.Sampler.Bernoulli.t option; (* None: rate 1 *)
  partition : Superset_partition.t; (* F -> [q] supersets (Claim 4.9) *)
  cntr_small : Mkc_sketch.F2_contributing.t;
  cntr_large : Mkc_sketch.F2_contributing.t;
  fallback_sampler : Mkc_sketch.Sampler.Bernoulli.t;
  fallback : (int, Mkc_sketch.L0_bjkst.t) Hashtbl.t; (* sampled supersets M *)
  fallback_seed : Mkc_hashing.Splitmix.t;
  (* Planned-path accelerators.  All four caches memoise pure,
     seed-determined functions (superset assignment, F2C subsampling
     codes, fallback sampling, element sampling), so a hit returns
     exactly what a recomputation would: sketch state is unchanged by
     construction.  They are scratch — uncounted in [words_breakdown],
     absent from checkpoints (restored runs start cold), and left
     as-is by merges (the memoised functions only depend on seeds,
     which shards share). *)
  sp_memo : Mkc_sketch.Sampler.Memo.t; (* set id -> superset id *)
  code_small : int array; (* sid -> cntr_small keep code; min_int = unknown *)
  code_large : int array; (* sid -> cntr_large keep code; min_int = unknown *)
  keepf_tab : int array; (* sid -> 0/1 fallback-sampled; -1 = unknown *)
  elem_memo : Mkc_sketch.Sampler.Memo.t; (* reduced elt -> 0/1 in-sample *)
  (* Deferred CountSketch deltas: the CS halves of both counters are
     linear and commutative, so per-chunk per-superset multiplicities
     accumulate here and are applied once — via {!flush_pending} —
     before any read of counter state (finalize, checkpoint encode,
     merge).  Final counter values are bit-for-bit the eager ones. *)
  cs_pending : int array; (* sid -> pending signed delta; min_int = not listed *)
  cs_touched : int array; (* sids with a pending sum, compact *)
  mutable cs_ntouched : int;
  mutable cs_dirty : bool;
  defer_small : level_defer array; (* per cntr_small level *)
  defer_large : level_defer array; (* per cntr_large level *)
}

type t = {
  params : Params.t;
  w : int;
  q : int; (* number of supersets *)
  rho : float; (* element sampling rate *)
  thr1 : float;
  thr2 : float;
  repeats : repeat_state array;
  (* feed_planned scratch, reused across chunks and repeats (repeats are
     driven serially): per-distinct-element / per-distinct-set decision
     tables. *)
  mutable sc_ins : bool array; (* distinct elt -> in element sample *)
  mutable sc_sids : int array; (* distinct set -> superset id *)
  mutable sc_small : int array; (* distinct set -> Cntr_small keep code *)
  mutable sc_large : int array; (* distinct set -> Cntr_large keep code *)
  mutable sc_keepf : bool array; (* distinct set -> fallback-sampled *)
  sc_sid_cnt : int array; (* sid -> signed in-sample sum this chunk; min_int = inactive *)
  sc_active : int array; (* compact list of sids touched this chunk *)
  mutable st_elem_sampler_evals : int;
  mutable st_fallback_sampler_evals : int;
  mutable st_f2_updates : int;
  mutable st_l0_updates : int;
  mutable st_hh_recoveries : int; (* set at finalize *)
  mutable st_hh_candidates : int; (* set at finalize *)
}

let create (params : Params.t) ~w ~seed =
  if w < 1 then invalid_arg "Large_set.create: w must be >= 1";
  let p = params in
  let q = max 2 (Mkc_hashing.Hash_family.ceil_div p.Params.m w) in
  let sa = Params.s_alpha p in
  let rho = min 1.0 (p.t_elem *. sa *. p.eta /. float_of_int p.u) in
  let l_size = rho *. float_of_int p.u in
  let thr1 = l_size /. (18.0 *. p.eta *. sa) in
  let thr2 = l_size /. (6.0 *. p.eta *. p.alpha) in
  let r1 = max 2 (int_of_float (ceil (3.0 *. sa))) in
  let r2 = max 2 (q / 4) in
  let gamma1 = min 1.0 (p.alpha *. p.alpha /. float_of_int p.m) in
  let gamma2 = 1.0 /. (2.0 *. max 1.0 (Float.log2 p.alpha)) in
  (* Figure 6 samples ~ q·log(m)/r2 supersets for the oversized-class
     fallback; with r2 = q/4 that is a constant-size pool. *)
  let fallback_rate = min 1.0 (8.0 *. float_of_int (q / r2) /. float_of_int q) in
  let mk_defer cntr =
    Array.init (Mkc_sketch.F2_contributing.levels cntr) (fun _ ->
        {
          (* min_int = "not in [touched]": a signed sum may legitimately
             pass through 0, so the value itself cannot double as the
             membership test (a 0-sentinel would re-append the sid and
             overflow the q-sized compact list under cancellation). *)
          pend = Array.make q min_int;
          touched = Array.make q 0;
          ntouched = 0;
          seen = Array.make q false;
          ever = 0;
          dirty = false;
        })
  in
  let mk_repeat r =
    let sd = Mkc_hashing.Splitmix.fork seed r in
    let cntr_small =
      Mkc_sketch.F2_contributing.create ~gamma:gamma1 ~r:r1 ~indep:p.indep
        ~seed:(Mkc_hashing.Splitmix.fork sd 2) ()
    in
    let cntr_large =
      Mkc_sketch.F2_contributing.create ~gamma:gamma2 ~r:r2 ~indep:p.indep
        ~seed:(Mkc_hashing.Splitmix.fork sd 3) ()
    in
    {
      elem_sampler =
        (if rho >= 1.0 then None
         else
           Some
             (Mkc_sketch.Sampler.Bernoulli.create ~rate:rho ~indep:p.indep
                ~seed:(Mkc_hashing.Splitmix.fork sd 0)));
      partition =
        Superset_partition.create ~m:p.Params.m ~q ~indep:p.indep
          ~seed:(Mkc_hashing.Splitmix.fork sd 1);
      cntr_small;
      cntr_large;
      fallback_sampler =
        Mkc_sketch.Sampler.Bernoulli.create ~rate:fallback_rate ~indep:p.indep
          ~seed:(Mkc_hashing.Splitmix.fork sd 4);
      fallback = Hashtbl.create 16;
      fallback_seed = Mkc_hashing.Splitmix.fork sd 5;
      sp_memo = Mkc_sketch.Sampler.Memo.create ~slots:(min p.Params.m 65536);
      code_small = Array.make q min_int;
      code_large = Array.make q min_int;
      keepf_tab = Array.make q (-1);
      elem_memo = Mkc_sketch.Sampler.Memo.create ~slots:(min (max 16 p.Params.u) 65536);
      cs_pending = Array.make q min_int;
      cs_touched = Array.make q 0;
      cs_ntouched = 0;
      cs_dirty = false;
      defer_small = mk_defer cntr_small;
      defer_large = mk_defer cntr_large;
    }
  in
  (* With ρ = 1 the element sample is the whole universe, so the
     O(log n) repeats of Figure 7 (whose sole purpose is to dodge
     common elements in at least one sample, App. B Step 1) buy much
     less — halve them on the hot small-universe instances. *)
  let repeats = if rho >= 1.0 then max 1 (p.oracle_repeats / 2) else p.oracle_repeats in
  {
    params;
    w;
    q;
    rho;
    thr1;
    thr2;
    repeats = Array.init repeats mk_repeat;
    sc_ins = [||];
    sc_sids = [||];
    sc_small = [||];
    sc_large = [||];
    sc_keepf = [||];
    sc_sid_cnt = Array.make q min_int;
    sc_active = Array.make q 0;
    st_elem_sampler_evals = 0;
    st_fallback_sampler_evals = 0;
    st_f2_updates = 0;
    st_l0_updates = 0;
    st_hh_recoveries = 0;
    st_hh_candidates = 0;
  }

let in_sample t rs e =
  match rs.elem_sampler with
  | None -> true
  | Some s ->
      t.st_elem_sampler_evals <- t.st_elem_sampler_evals + 1;
      Mkc_sketch.Sampler.Bernoulli.keep s e

(* The fallback L0 sketch of a sampled superset, created on first
   touch.  Creation order (hence the table's internal layout) must
   follow stream order in every ingestion mode, so candidate iteration
   at finalize is identical across them. *)
let fallback_sketch rs sid =
  (* [find] + Not_found, not [find_opt]: the hit path is per-edge hot
     and must not allocate a [Some]. *)
  match Hashtbl.find rs.fallback sid with
  | sk -> sk
  | exception Not_found ->
      let sk =
        Mkc_sketch.L0_bjkst.create ~seed:(Mkc_hashing.Splitmix.fork rs.fallback_seed sid) ()
      in
      Hashtbl.replace rs.fallback sid sk;
      sk

let feed_repeat t rs (e : Mkc_stream.Edge.t) =
  if in_sample t rs e.elt then begin
    let sid = Superset_partition.superset_of rs.partition e.set in
    (* The F2 counters are pointwise-linear: a deletion is just a −1
       update, and the signed sums downstream (CS rows, tracked counts)
       land exactly where an insertion-free stream would have left
       them.  The fallback L0 is the set sketch — insertion-only — so
       deletions bypass it; its estimate over a churned superset is an
       upper bound on the live count (DESIGN.md, turnstile section). *)
    Mkc_sketch.F2_contributing.add rs.cntr_small sid e.sign;
    Mkc_sketch.F2_contributing.add rs.cntr_large sid e.sign;
    t.st_f2_updates <- t.st_f2_updates + 2;
    t.st_fallback_sampler_evals <- t.st_fallback_sampler_evals + 1;
    if Mkc_sketch.Sampler.Bernoulli.keep rs.fallback_sampler sid && e.sign > 0 then begin
      t.st_l0_updates <- t.st_l0_updates + 1;
      Mkc_sketch.L0_bjkst.add (fallback_sketch rs sid) e.elt
    end
  end

let feed t e = Array.iter (fun rs -> feed_repeat t rs e) t.repeats

let ensure_int a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

let ensure_bool a n =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) false

(* Cached F2C subsampling codes, filled on first sighting of a superset
   id.  [decide] is a pure function of the counter's seed, so the cache
   never goes stale. *)
let code_small_of rs sid =
  let c = Array.unsafe_get rs.code_small sid in
  if c <> min_int then c
  else begin
    let c = Mkc_sketch.F2_contributing.decide rs.cntr_small sid in
    Array.unsafe_set rs.code_small sid c;
    c
  end

let code_large_of rs sid =
  let c = Array.unsafe_get rs.code_large sid in
  if c <> min_int then c
  else begin
    let c = Mkc_sketch.F2_contributing.decide rs.cntr_large sid in
    Array.unsafe_set rs.code_large sid c;
    c
  end

(* Apply one level's deferred tracked deltas.  Sound only under the
   deferral invariant ([ever <= 2·cap], so no prune can fire during the
   bulk insert): the resulting table holds the same (id, count) multiset
   as an in-order replay, and nothing observable depends on slot
   layout (dump/candidates/prune all canonicalize).  Only the sids in
   [touched] are visited — flush cost is O(pending sids), not O(q), so
   a mid-run space/telemetry sample on a mostly-clean repeat is
   cheap. *)
(* Flush-size distribution: how many touched sids each deferred flush
   applies.  Large flushes mean the deferral is batching well; a wall
   of size-1 flushes means reads are interleaving with feeding. *)
module Obs = struct
  let flush_size =
    Mkc_obs.Registry.histogram Mkc_obs.Registry.global "large_set.flush_size"
end

let flush_level hh d =
  if d.dirty then begin
    d.dirty <- false;
    Mkc_obs.Registry.record Obs.flush_size d.ntouched;
    let pend = d.pend and touched = d.touched in
    for i = 0 to d.ntouched - 1 do
      let sid = Array.unsafe_get touched i in
      let c = Array.unsafe_get pend sid in
      Array.unsafe_set pend sid min_int;
      (* A signed sum that cancelled to zero applies nothing — exactly
         what an in-order replay leaves behind (insert then
         remove-at-zero). *)
      if c <> 0 then Mkc_sketch.F2_heavy_hitter.add_tracked hh sid c
    done;
    d.ntouched <- 0
  end

let flush_tracked cntr defer =
  Array.iteri (fun lvl d -> flush_level (Mkc_sketch.F2_contributing.level cntr lvl) d) defer

(* Apply just the deferred tracked deltas — all that space accounting
   needs.  A CountSketch row is a fixed [depth × width] block, so the
   pending CS deltas cannot move [words]; only tracked-table occupancy
   ([2·tn] per level) does.  The tracked flush is cap-bounded per level
   (deferral stops at [ever > 2·cap]), so a cadence-driven words sample
   costs O(levels · cap) instead of replaying every pending CS delta —
   that replay waits for {!flush_pending} at the next value read. *)
let flush_words rs =
  flush_tracked rs.cntr_small rs.defer_small;
  flush_tracked rs.cntr_large rs.defer_large

(* Apply all deferred deltas (CountSketch halves and tracked halves).
   Must run before any read of counter state — candidate recovery,
   checkpoint encode, merge — and is a no-op on clean repeats (the
   common per-edge-mode case). *)
let flush_pending rs =
  if rs.cs_dirty then begin
    rs.cs_dirty <- false;
    Mkc_obs.Registry.record Obs.flush_size rs.cs_ntouched;
    let pend = rs.cs_pending and touched = rs.cs_touched in
    for i = 0 to rs.cs_ntouched - 1 do
      let sid = Array.unsafe_get touched i in
      let c = Array.unsafe_get pend sid in
      Array.unsafe_set pend sid min_int;
      if c <> 0 then begin
        Mkc_sketch.F2_contributing.add_cs_decided rs.cntr_small ~code:(code_small_of rs sid)
          sid c;
        Mkc_sketch.F2_contributing.add_cs_decided rs.cntr_large ~code:(code_large_of rs sid)
          sid c
      end
    done;
    rs.cs_ntouched <- 0
  end;
  flush_tracked rs.cntr_small rs.defer_small;
  flush_tracked rs.cntr_large rs.defer_large

(* Reconstruct [seen]/[ever] from the tables themselves (after restore
   or merge).  Exact while a level has never pruned: with no prunes the
   flushed table holds precisely the coordinates ever inserted.  Once a
   level has pruned, deferral is disabled for good and [seen]/[ever]
   are irrelevant. *)
let rebuild_defer rs =
  let reb cntr defer =
    Array.iteri
      (fun lvl d ->
        let hh = Mkc_sketch.F2_contributing.level cntr lvl in
        Array.fill d.pend 0 (Array.length d.pend) min_int;
        d.ntouched <- 0;
        d.dirty <- false;
        Array.fill d.seen 0 (Array.length d.seen) false;
        d.ever <- 0;
        if Mkc_sketch.F2_heavy_hitter.prunes hh = 0 then
          for sid = 0 to Array.length d.seen - 1 do
            if Mkc_sketch.F2_heavy_hitter.mem hh sid then begin
              d.seen.(sid) <- true;
              d.ever <- d.ever + 1
            end
          done)
      defer
  in
  reb rs.cntr_small rs.defer_small;
  reb rs.cntr_large rs.defer_large

(* The tracked half of one counter for one chunk, level-major.  Levels
   share no state, so regrouping per level is exact as long as each
   level sees its update subsequence in order.  A level defers (pure
   per-sid sums into [pend]) while pruning provably cannot fire —
   [ever + newly <= 2·cap] — and otherwise flushes and replays the
   chunk edge-by-edge (the first such chunk drives the table past
   2·cap, so it prunes, and [prunes > 0] pins the level to per-edge
   replay from then on). *)
let tracked_chunk cntr defer ~code_tab ~active ~na ~sid_cnt ~ins ~sids ~codes_j ~set_idx
    ~elt_idx ~edges ~pos ~len =
  let levels = Mkc_sketch.F2_contributing.levels cntr in
  for lvl = 0 to levels - 1 do
    let hh = Mkc_sketch.F2_contributing.level cntr lvl in
    let d = Array.unsafe_get defer lvl in
    let top = levels - 1 - lvl in
    (* covered at lvl ⟺ 0 <= code <= top *)
    let deferrable =
      Mkc_sketch.F2_heavy_hitter.prunes hh = 0
      &&
      let newly = ref 0 in
      for a = 0 to na - 1 do
        let sid = Array.unsafe_get active a in
        let code = Array.unsafe_get code_tab sid in
        if code >= 0 && code <= top && not (Array.unsafe_get d.seen sid) then incr newly
      done;
      d.ever + !newly <= 2 * Mkc_sketch.F2_heavy_hitter.cap hh
    in
    if deferrable then begin
      (* [seen]/[ever] mark every touched sid regardless of sign: the
         eager path's transient occupancy is bounded by the distinct
         sids ever touched (deletions only shrink the table), so the
         [ever <= 2·cap] invariant still rules out a prune — and with
         no prune, the table is a pure per-sid signed sum with
         removal-at-zero, which the net flush reproduces exactly. *)
      for a = 0 to na - 1 do
        let sid = Array.unsafe_get active a in
        let code = Array.unsafe_get code_tab sid in
        if code >= 0 && code <= top then begin
          if not (Array.unsafe_get d.seen sid) then begin
            Array.unsafe_set d.seen sid true;
            d.ever <- d.ever + 1
          end;
          let p = Array.unsafe_get d.pend sid in
          let c = Array.unsafe_get sid_cnt sid in
          if p = min_int then begin
            Array.unsafe_set d.touched d.ntouched sid;
            d.ntouched <- d.ntouched + 1;
            Array.unsafe_set d.pend sid c
          end
          else Array.unsafe_set d.pend sid (p + c)
        end
      done;
      d.dirty <- true
    end
    else begin
      flush_level hh d;
      for i = 0 to len - 1 do
        if Array.unsafe_get ins (Array.unsafe_get elt_idx i) then begin
          let sj = Array.unsafe_get set_idx i in
          let code = Array.unsafe_get codes_j sj in
          if code >= 0 && code <= top then
            Mkc_sketch.F2_heavy_hitter.add_tracked hh (Array.unsafe_get sids sj)
              (Array.unsafe_get edges (pos + i)).Mkc_stream.Edge.sign
        end
      done
    end
  done

let feed_planned t plan ~red edges ~pos ~len =
  (* Chunk-deduplicated path.  Per repeat: every hash decision — element
     sample membership, superset assignment, both F2C subsampling codes,
     fallback superset sampling — is served from the repeat's memo
     caches, falling back to one hash evaluation per distinct id on a
     miss; then the chunk is replayed in original edge order through
     O(1) table lookups.  The order-sensitive halves (F2C candidate
     tracking with its prune, fallback L0 adds) replay per edge, so
     their states are bit-for-bit the per-edge ones; the CountSketch
     halves are linear and commutative, so each distinct set's
     in-sample multiplicity is parked in [cs_pending] and applied by
     {!flush_pending} before the counters are next read.

     Eval counters deliberately charge the full [ne]/[ns] per chunk —
     the decision *consumptions*, not the hash evaluations a cache
     happened to absorb — so their values are independent of cache
     warmth and replay exactly across crash-resume without the caches
     being checkpointed. *)
  let ns = Mkc_stream.Chunk_plan.num_sets plan in
  let ne = Mkc_stream.Chunk_plan.num_elts plan in
  t.sc_ins <- ensure_bool t.sc_ins ne;
  t.sc_sids <- ensure_int t.sc_sids ns;
  t.sc_small <- ensure_int t.sc_small ns;
  t.sc_large <- ensure_int t.sc_large ns;
  t.sc_keepf <- ensure_bool t.sc_keepf ns;
  let ins = t.sc_ins and sids = t.sc_sids in
  let csmall = t.sc_small and clarge = t.sc_large in
  let keepf = t.sc_keepf in
  let sid_cnt = t.sc_sid_cnt and active = t.sc_active in
  let sets = Mkc_stream.Chunk_plan.sets plan in
  let set_idx = Mkc_stream.Chunk_plan.set_index plan in
  let elt_idx = Mkc_stream.Chunk_plan.elt_index plan in
  Array.iter
    (fun rs ->
      (match rs.elem_sampler with
      | None -> Array.fill ins 0 ne true
      | Some s ->
          t.st_elem_sampler_evals <- t.st_elem_sampler_evals + ne;
          let memo = rs.elem_memo in
          for j = 0 to ne - 1 do
            let x = Array.unsafe_get red j in
            let v = Mkc_sketch.Sampler.Memo.find memo x in
            if v >= 0 then Array.unsafe_set ins j (v = 1)
            else begin
              let b = Mkc_sketch.Sampler.Bernoulli.keep s x in
              Mkc_sketch.Sampler.Memo.store memo x (if b then 1 else 0);
              Array.unsafe_set ins j b
            end
          done);
      t.st_fallback_sampler_evals <- t.st_fallback_sampler_evals + ns;
      for j = 0 to ns - 1 do
        let set = Array.unsafe_get sets j in
        let sid =
          let v = Mkc_sketch.Sampler.Memo.find rs.sp_memo set in
          if v >= 0 then v
          else begin
            let sid = Superset_partition.superset_of rs.partition set in
            Mkc_sketch.Sampler.Memo.store rs.sp_memo set sid;
            sid
          end
        in
        Array.unsafe_set sids j sid;
        Array.unsafe_set csmall j (code_small_of rs sid);
        Array.unsafe_set clarge j (code_large_of rs sid);
        let kf =
          let v = Array.unsafe_get rs.keepf_tab sid in
          if v >= 0 then v = 1
          else begin
            let b = Mkc_sketch.Sampler.Bernoulli.keep rs.fallback_sampler sid in
            Array.unsafe_set rs.keepf_tab sid (if b then 1 else 0);
            b
          end
        in
        Array.unsafe_set keepf j kf
      done;
      (* Replay pass: order-sensitive L0 fallback adds happen here, per
         edge; per-sid in-sample multiplicities are collected for the
         deferred CountSketch and tracked halves. *)
      let in_sample_edges = ref 0 in
      let na = ref 0 in
      for i = 0 to len - 1 do
        if Array.unsafe_get ins (Array.unsafe_get elt_idx i) then begin
          let sj = Array.unsafe_get set_idx i in
          let sid = Array.unsafe_get sids sj in
          let sign = (Array.unsafe_get edges (pos + i)).Mkc_stream.Edge.sign in
          incr in_sample_edges;
          let c = Array.unsafe_get sid_cnt sid in
          if c = min_int then begin
            Array.unsafe_set active !na sid;
            incr na;
            Array.unsafe_set sid_cnt sid sign
          end
          else Array.unsafe_set sid_cnt sid (c + sign);
          if Array.unsafe_get keepf sj && sign > 0 then begin
            t.st_l0_updates <- t.st_l0_updates + 1;
            Mkc_sketch.L0_bjkst.add (fallback_sketch rs sid)
              (Array.unsafe_get red (Array.unsafe_get elt_idx i))
          end
        end
      done;
      t.st_f2_updates <- t.st_f2_updates + (2 * !in_sample_edges);
      if !in_sample_edges > 0 then begin
        let na = !na in
        rs.cs_dirty <- true;
        let pend = rs.cs_pending and touched = rs.cs_touched in
        for a = 0 to na - 1 do
          let sid = Array.unsafe_get active a in
          let p = Array.unsafe_get pend sid in
          let c = Array.unsafe_get sid_cnt sid in
          if p = min_int then begin
            Array.unsafe_set touched rs.cs_ntouched sid;
            rs.cs_ntouched <- rs.cs_ntouched + 1;
            Array.unsafe_set pend sid c
          end
          else Array.unsafe_set pend sid (p + c)
        done;
        tracked_chunk rs.cntr_small rs.defer_small ~code_tab:rs.code_small ~active ~na
          ~sid_cnt ~ins ~sids ~codes_j:csmall ~set_idx ~elt_idx ~edges ~pos ~len;
        tracked_chunk rs.cntr_large rs.defer_large ~code_tab:rs.code_large ~active ~na
          ~sid_cnt ~ins ~sids ~codes_j:clarge ~set_idx ~elt_idx ~edges ~pos ~len;
        for a = 0 to na - 1 do
          Array.unsafe_set sid_cnt (Array.unsafe_get active a) min_int
        done
      end)
    t.repeats

let thresholds t = (t.thr1, t.thr2)

(* A passing candidate, before cross-repeat max. *)
type candidate = { superset : int; repeat : int; est : float; via_l0 : bool }

let candidates_of_repeat t r rs =
  flush_pending rs;
  let f = t.params.Params.f in
  let of_hits threshold hits =
    List.filter_map
      (fun (h : Mkc_sketch.F2_contributing.hit) ->
        if h.freq >= threshold /. 2.0 then
          Some { superset = h.id; repeat = r; est = 2.0 *. h.freq /. (3.0 *. f); via_l0 = false }
        else None)
      hits
  in
  let small = of_hits t.thr1 (Mkc_sketch.F2_contributing.candidates rs.cntr_small) in
  let large = of_hits t.thr2 (Mkc_sketch.F2_contributing.candidates rs.cntr_large) in
  let fallback =
    Hashtbl.fold
      (fun sid sk acc ->
        let v = Mkc_sketch.L0_bjkst.estimate sk in
        if v >= t.thr2 /. 2.0 then
          (* Coverage sketch: no duplication discount needed. *)
          { superset = sid; repeat = r; est = 2.0 *. v /. 3.0; via_l0 = true } :: acc
        else acc)
      rs.fallback []
    (* Canonical order: the fold above walks the table in layout order,
       which differs between a live run and a restored/merged one. *)
    |> List.sort (fun a b -> compare a.superset b.superset)
  in
  small @ large @ fallback

let witness t (c : candidate) () =
  let rs = t.repeats.(c.repeat) in
  Superset_partition.members ~limit:t.params.Params.k rs.partition c.superset

let finalize t =
  (* Recovery success rate = recoveries / candidates: how many of the
     tracked heavy-hitter candidates (plus fallback sketches) actually
     cleared their threshold.  Examined counts are taken per repeat
     right before filtering, so they see the same post-prune tables. *)
  let examined = ref 0 in
  let all =
    List.concat
      (List.mapi
         (fun r rs ->
           flush_pending rs;
           examined :=
             !examined
             + List.length (Mkc_sketch.F2_contributing.candidates rs.cntr_small)
             + List.length (Mkc_sketch.F2_contributing.candidates rs.cntr_large)
             + Hashtbl.length rs.fallback;
           candidates_of_repeat t r rs)
         (Array.to_list t.repeats))
  in
  t.st_hh_candidates <- !examined;
  t.st_hh_recoveries <- List.length all;
  (* Total order: estimate descending, then (repeat, superset, via_l0)
     — the winner must not depend on candidate-list construction
     order. *)
  match
    List.sort
      (fun a b ->
        if a.est <> b.est then compare b.est a.est
        else compare (a.repeat, a.superset, a.via_l0) (b.repeat, b.superset, b.via_l0))
      all
  with
  | [] -> None
  | best :: _ ->
      Some
        {
          Solution.estimate = best.est /. t.rho;
          witness = witness t best;
          provenance =
            Solution.Large_set
              { superset = best.superset; repeat = best.repeat; via_l0_fallback = best.via_l0 };
        }

module Ck = Mkc_stream.Checkpoint
module Json = Mkc_obs.Json

let encode_repeat rs =
  (* The checkpoint carries the counters with all pending CS deltas
     applied — the envelope format is unchanged and a resumed run
     starts with clean accumulators. *)
  flush_pending rs;
  let fallback =
    Hashtbl.fold (fun sid sk acc -> (sid, sk) :: acc) rs.fallback []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (sid, sk) -> Json.Array [ Json.Int sid; Ck.Sketch_io.l0 sk ])
  in
  Json.Object
    [
      ("cntr_small", Ck.Sketch_io.f2c rs.cntr_small);
      ("cntr_large", Ck.Sketch_io.f2c rs.cntr_large);
      ("fallback", Json.Array fallback);
    ]

let encode t =
  Json.Object
    [
      ("repeats", Json.Array (Array.to_list (Array.map encode_repeat t.repeats)));
      ( "stats",
        Json.Object
          [
            ("elem_sampler_evals", Json.Int t.st_elem_sampler_evals);
            ("fallback_sampler_evals", Json.Int t.st_fallback_sampler_evals);
            ("f2_updates", Json.Int t.st_f2_updates);
            ("l0_updates", Json.Int t.st_l0_updates);
          ] );
    ]

let ( let* ) = Result.bind

let restore_repeat rs j =
  (* Checkpointed counters are always flushed (see [encode_repeat]), so
     pending deltas from any pre-restore feeding must not survive into
     the restored state. *)
  Array.fill rs.cs_pending 0 (Array.length rs.cs_pending) min_int;
  rs.cs_ntouched <- 0;
  rs.cs_dirty <- false;
  let* sj = Ck.J.field "cntr_small" j in
  let* () = Ck.Sketch_io.restore_f2c rs.cntr_small sj in
  let* lj = Ck.J.field "cntr_large" j in
  let* () = Ck.Sketch_io.restore_f2c rs.cntr_large lj in
  rebuild_defer rs;
  let* fb = Ck.J.list_field "fallback" j in
  Hashtbl.reset rs.fallback;
  Ck.J.map_result
    (fun entry ->
      match Json.to_list entry with
      | Some [ sid; skj ] ->
          let* sid = Ck.J.to_int sid in
          (* Same per-superset seed derivation as first-touch creation,
             so the restored sketch hashes identically. *)
          let sk = fallback_sketch rs sid in
          Ck.Sketch_io.restore_l0 sk skj
      | _ -> Ck.J.err "expected [sid, l0] fallback entry")
    fb
  |> Result.map (fun (_ : unit list) -> ())

let restore t j =
  let* reps = Ck.J.list_field "repeats" j in
  let* () =
    if List.length reps <> Array.length t.repeats then
      Ck.J.err "large_set: expected %d repeats, got %d" (Array.length t.repeats)
        (List.length reps)
    else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc (r, rj) ->
        let* () = acc in
        match restore_repeat t.repeats.(r) rj with
        | Ok () -> Ok ()
        | Error e -> Ck.J.err "large_set repeat %d: %s" r e)
      (Ok ())
      (List.mapi (fun r rj -> (r, rj)) reps)
  in
  let* sj = Ck.J.field "stats" j in
  let* ese = Ck.J.int_field "elem_sampler_evals" sj in
  let* fse = Ck.J.int_field "fallback_sampler_evals" sj in
  let* f2u = Ck.J.int_field "f2_updates" sj in
  let* l0u = Ck.J.int_field "l0_updates" sj in
  t.st_elem_sampler_evals <- ese;
  t.st_fallback_sampler_evals <- fse;
  t.st_f2_updates <- f2u;
  t.st_l0_updates <- l0u;
  Ok ()

let merge_into ~dst src =
  Array.iteri
    (fun r (srs : repeat_state) ->
      let drs = dst.repeats.(r) in
      flush_pending srs;
      flush_pending drs;
      Mkc_sketch.F2_contributing.merge_into ~dst:drs.cntr_small srs.cntr_small;
      Mkc_sketch.F2_contributing.merge_into ~dst:drs.cntr_large srs.cntr_large;
      rebuild_defer drs;
      (* Fallback sketches are per-superset L0s with sid-derived seeds:
         identical seeds on both sides, so they union exactly.  Walk in
         sorted sid order to keep the destination layout canonical. *)
      Hashtbl.fold (fun sid sk acc -> (sid, sk) :: acc) srs.fallback []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (sid, sk) ->
             Mkc_sketch.L0_bjkst.merge_into ~dst:(fallback_sketch drs sid) sk))
    src.repeats;
  dst.st_elem_sampler_evals <- dst.st_elem_sampler_evals + src.st_elem_sampler_evals;
  dst.st_fallback_sampler_evals <-
    dst.st_fallback_sampler_evals + src.st_fallback_sampler_evals;
  dst.st_f2_updates <- dst.st_f2_updates + src.st_f2_updates;
  dst.st_l0_updates <- dst.st_l0_updates + src.st_l0_updates

let words_breakdown t =
  (* Apply deferred tracked deltas first: the accumulators are
     uncounted scratch, so an unflushed repeat would under-report the
     tracker words a per-edge run pays at the same edge.  Safe at any
     chunk boundary — the deferral invariant is maintained
     chunk-by-chunk, so an early flush replays exactly the inserts a
     later one would.  Pending CS deltas are left parked: they cannot
     change any [words] term (see {!flush_words}). *)
  Array.iter flush_words t.repeats;
  let sampler = ref 0 and partition = ref 0 and f2 = ref 0 and l0 = ref 0 in
  Array.iter
    (fun rs ->
      sampler :=
        !sampler
        + (match rs.elem_sampler with None -> 0 | Some s -> Mkc_sketch.Sampler.Bernoulli.words s)
        + Mkc_sketch.Sampler.Bernoulli.words rs.fallback_sampler;
      partition := !partition + Superset_partition.words rs.partition;
      f2 :=
        !f2
        + Mkc_sketch.F2_contributing.words rs.cntr_small
        + Mkc_sketch.F2_contributing.words rs.cntr_large;
      l0 := !l0 + Hashtbl.fold (fun _ sk acc -> acc + Mkc_sketch.L0_bjkst.words sk) rs.fallback 0)
    t.repeats;
  [
    ("sampler", !sampler);
    ("partition", !partition);
    ("f2_contributing", !f2);
    ("l0_fallback", !l0);
  ]

let words t = List.fold_left (fun acc (_, w) -> acc + w) 0 (words_breakdown t)

let stats t =
  (* Same flush as [words_breakdown]: mid-run [f2_tracked] must count
     deferred insertions the tracker already owns logically.  The
     tracked flush also settles [f2_tracked]/[f2_prunes]; pending CS
     deltas touch neither. *)
  Array.iter flush_words t.repeats;
  [
    ("elem_sampler_evals", t.st_elem_sampler_evals);
    ("fallback_sampler_evals", t.st_fallback_sampler_evals);
    ("f2_updates", t.st_f2_updates);
    ("l0_updates", t.st_l0_updates);
    ("hh_recoveries", t.st_hh_recoveries);
    ("hh_candidates", t.st_hh_candidates);
    ( "f2_prunes",
      Array.fold_left
        (fun acc rs ->
          acc
          + Mkc_sketch.F2_contributing.prunes rs.cntr_small
          + Mkc_sketch.F2_contributing.prunes rs.cntr_large)
        0 t.repeats );
    ( "f2_tracked",
      Array.fold_left
        (fun acc rs ->
          acc
          + Mkc_sketch.F2_contributing.tracked rs.cntr_small
          + Mkc_sketch.F2_contributing.tracked rs.cntr_large)
        0 t.repeats );
  ]
