(** LargeCommon (Figure 3): the multi-layered set-sampling subroutine of
    the (α, δ, η)-oracle, covering case I of the analysis — instances
    where, for some β ≤ α, the (βk)-common elements have mass at least
    [σβ|U|/α].

    For each guess [β_g = 2^i ≤ α] it samples sets at rate ≈ [β_g k / m]
    (one Θ(log mn)-wise hash drives all levels, nested — Section A.1)
    and measures the coverage of the sampled collection with an L0
    sketch.  By set sampling (Lemma 2.3) the level-β_g sample covers all
    (β_g k)-common elements w.h.p., so if those are numerous the sketch
    value is large; the returned estimate [2·VAL/(3β_g)] is a lower
    bound on the best k-cover inside the sample (Observation 2.4) and
    hence on OPT.  Total space Õ(1) (Theorem 4.4).

    The witness is the lexicographically-first min(k, |F^rnd|) sampled
    set ids of the winning level — a uniform k-subset of the sample,
    which carries a 1/β_g fraction of the sample's coverage in
    expectation (Observation 2.4). *)

type t

val create : Params.t -> seed:Mkc_hashing.Splitmix.t -> t
val feed : t -> Mkc_stream.Edge.t -> unit

val feed_planned :
  t ->
  Mkc_stream.Chunk_plan.t ->
  red:int array ->
  Mkc_stream.Edge.t array ->
  pos:int ->
  len:int ->
  unit
(** Chunk-deduplicated ingestion: the set-sampling decision is made once
    per distinct set id of the plan (through the memo), then the chunk
    is replayed in original edge order with O(1) lookups — L0 states are
    bit-for-bit the per-edge ones.  [red.(j)] must hold the (reduced)
    element value of the plan's j-th distinct element; the edge slice
    itself is not consulted. *)

val sampler_evals : t -> int
(** Actual set-sampling hash evaluations so far — memo misses only (the
    decision count the chunk engine is built to shrink; also the
    [sampler_evals] stat). *)

val finalize : t -> Solution.outcome option
(** [None] means "infeasible": no level passed the
    [σ β_g |U| / (4α)] threshold — then w.h.p. no β ≤ α has common-
    element mass above the case-I bar (Lemma 4.7), and the other oracle
    subroutines are in charge. *)

val coverage_estimates : t -> (int * float) list
(** Per-level [(β_g, L0 estimate of |C(F^rnd_β)|)] diagnostics, used by
    the fig3 bench. *)

val words : t -> int

val words_breakdown : t -> (string * int) list
(** [("sampler", _); ("memo", _); ("l0", _)] — the nested set-sampler's
    seeds, the bounded decision memo, and the per-level L0 sketches. *)

val stats : t -> (string * int) list
(** Work counters: ["sampler_evals"] (set-sampling hash {e evaluations}
    — memo misses, not probes: O(distinct set ids), not O(edges)) and
    ["l0_updates"] (one per (kept edge, nested level) — Figure 3's
    sketch update volume, identical across ingestion modes). *)

val encode : t -> Mkc_obs.Json.t
(** Mutable state only (L0 dumps, memo contents, work counters): the
    samplers and hash tables are re-created from params + seed by
    {!create}, then {!restore} overlays this payload. *)

val restore : t -> Mkc_obs.Json.t -> (unit, string) result
(** Overlay an {!encode} payload onto a freshly {!create}d instance of
    the same params and seed. *)

val merge_into : dst:t -> t -> unit
(** Fold a shard's state in: L0 sketches merge exactly (their state is
    a pure function of the elements seen), work counters sum, and the
    decision memo is dropped and rebuilt (it is a pure accelerator). *)
