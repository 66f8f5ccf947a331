(** Drivers that push an edge stream through {!Sink}s.

    Two ingestion paths, observationally identical on any fixed set of
    sinks (same seeds ⇒ bit-for-bit the same results):

    - {!run_seq} — one edge at a time through {!Sink.S.feed}, the
      literal streaming model and the reference the equivalence suites
      compare against;
    - every other drive — one chunk loop: the stream is cut into
      cache-friendly windows, one shared {!Chunk_plan} is built per
      window, and each sink consumes it through {!Sink.S.feed_planned}.
      {!run} drives one sink; {!feed_all_parallel} drives a fleet of
      mutually independent sinks (e.g. {!Mkc_core.Estimate.shards}'s
      z-guess × repeat oracle instances), bin-packed by cost over a
      persistent {!Pool} of OCaml 5 domains when it has more than one
      slot — then the coordinator builds each window's plan one window
      ahead of the workers; {!run_resumable} adds checkpoint/resume;
      {!run_sharded} runs the loop once per contiguous stream shard and
      merges.

    Determinism of the pooled drive: every sink is owned by exactly
    one slot per window and sees the full stream in order (windows are
    barriered — workers are awaited before the next window is
    dispatched), and no mutable state is shared between sinks, so the
    final state of each sink — and hence any finalize result — is
    identical to {!run_seq}'s, regardless of domain count, scheduling
    mode, or how shards were packed.  Parallelism and scheduling change
    wall-clock only, never output.

    Observability: when {!Mkc_obs.Registry.enabled} is on, the chunk
    loop records a [pipeline.chunk] span per window, bumps the counters
    [pipeline.chunks], [pipeline.edges] (stream edges) and
    [pipeline.sink_feed_edges] (edges × sinks — the feed work actually
    done), and records each window's feed latency into the
    [pipeline.chunk_feed_ns] histogram (mergeable log-linear buckets;
    p50/p99 survive shard-merge).  Every drive makes exactly one
    chunking pass, so the merged totals match across drives (a pooled
    one just has fewer, wider windows).  With workers, the loop
    additionally records one [pipeline.domain] span per slot per
    window, the gauges [pipeline.domain_busy_ns] (total slot busy ns)
    and [pipeline.domains], and the per-window histograms
    [pipeline.pool.plan_build_ns] (chunk-plan construction) and
    [pipeline.pool.queue_wait_ns] (dispatch → pick-up latency, the
    load-balance term).  With the registry disabled every instrument
    is a single load-and-branch. *)

val default_chunk : int
(** 65536 edges.  Chunks are the deduplication window of the hash
    engine: each distinct set id / element value in a chunk has its
    sampler and reduction hashes evaluated once and fanned out to all
    its edges, so larger chunks amortize more — 64k edges of a stream
    over m=4k sets turn ~16 per-edge hash evaluations into one.  The
    chunk buffer itself is a view into the stream (no copy); only the
    plan scratch (~6 words/edge) scales with the chunk. *)

val run_seq : ('s, 'r) Sink.sink -> 's -> Stream_source.t -> 'r
(** Feed edge-by-edge, then finalize.  The reference drive the chunk
    loop is tested against. *)

val run : ?chunk:int -> ('s, 'r) Sink.sink -> 's -> Stream_source.t -> 'r
(** Feed one sink chunk by chunk via [feed_planned] (one {!Chunk_plan}
    scratch, rebuilt for each chunk just before it is fed), then
    finalize. *)

(** {1 The persistent worker-domain pool} *)

type schedule =
  | Static  (** bin-pack once from static cost hints; never re-pack *)
  | Adaptive
      (** re-pack between windows from measured per-shard busy-ns
          (first window replaces the static seed, later windows are
          exponentially smoothed so one noisy window cannot thrash the
          packing) *)

module Pool : sig
  (** A set of worker domains spawned once and reused across chunk
      windows (and across drives): the per-window cost is a mutex
      handshake per worker, not a [Domain.spawn]/[join] pair.  One
      coordinator slot (the calling domain) plus [domains - 1]
      workers, each with a single-slot ticket mailbox.

      A pool is owned by the domain that created it; only that domain
      may drive or shut it down. *)

  type t

  val create : ?domains:int -> unit -> t
  (** Spawn [domains - 1] worker domains (default
      [Domain.recommended_domain_count ()]; [domains <= 1] makes a
      worker-less pool that drives everything on the coordinator). *)

  val size : t -> int
  (** Slot count including the coordinator ([domains] as created). *)

  val shutdown : t -> unit
  (** Quiesce and join every worker.  Idempotent. *)

  val with_pool : ?domains:int -> (t -> 'a) -> 'a
  (** [create], run, then {!shutdown} (also on exceptions). *)

  (** Drive statistics, accumulated over the pool's lifetime.  Worker
      arrays are indexed by worker (slot - 1); busy/wait are cumulative
      per worker — they never reset between windows or drives, which is
      what makes them usable as scheduler signals. *)
  type stats = {
    domains : int;
    windows : int;  (** chunk windows dispatched *)
    plan_build_ns : int;  (** total plan-build time *)
    plan_overlap_ns : int;
        (** the part of [plan_build_ns] spent while workers were
            replaying the previous window — the pipelining win *)
    window_wall_ns : int;  (** wall time inside the window loops *)
    coord_busy_ns : int;  (** coordinator sink-feeding time *)
    worker_busy_ns : int array;
    worker_wait_ns : int array;  (** dispatch → pick-up queue latency *)
    rebalances : int;  (** adaptive re-packings that changed the plan *)
  }

  val stats : t -> stats
  (** Read at quiescence (between drives). *)
end

val feed_all_parallel :
  ?pool:Pool.t ->
  ?domains:int ->
  ?schedule:schedule ->
  ?costs:float array ->
  ?chunk:int ->
  ?start:int ->
  Sink.any array ->
  Stream_source.t ->
  unit
(** Drive several sinks through one pass, window by window (all sinks
    see window [i] before any sees window [i+1]), sharing one
    {!Chunk_plan} per window, so the grouping pass is paid once per
    window, not once per sink.  Finalization is the caller's: packed
    sinks share state with the typed handles used to build them
    (e.g. [Estimate.finalize est] after driving [Estimate.shards est]).

    The sinks are bin-packed (LPT, slot 0 biased by the coordinator's
    plan-build work) across the slots of a {!Pool} — [pool] if given
    (with [domains] as an optional cap), else a transient pool of
    [domains] slots (default [Domain.recommended_domain_count ()]),
    capped by the number of sinks.  The stream is windowed at
    [chunk × slots] edges.  With more than one slot the coordinator
    pipelines: while the workers replay window [W] against its shared
    read-only plan, it builds window [W+1]'s plan into the other half
    of a double-buffered scratch pair, then feeds its own (lighter)
    sink group and awaits the workers — the same one grouping pass over
    the stream, with every per-distinct-id hash decision made once per
    [slots]×-wider window.  [costs] (per-sink relative weights, e.g.
    {!Mkc_core.Estimate.shard_costs}) seeds the packing; [schedule]
    (default {!Static}) controls whether measured busy-ns re-pack it
    between windows.  [start] skips a stream prefix.  Requires the
    sinks to be pairwise independent — no shared mutable state — which
    holds for all shard arrays exposed by this library.  With one slot
    every sink is fed on the calling domain and [costs]/[schedule] are
    unused. *)

val default_checkpoint_every : int
(** 8 windows between checkpoints in {!run_resumable}. *)

val run_resumable :
  ?pool:Pool.t ->
  ?domains:int ->
  ?schedule:schedule ->
  ?costs:float array ->
  ?chunk:int ->
  ?every:int ->
  ?resume:string ->
  ?checkpoint:string ->
  ?on_save:(pos:int -> bytes:int -> words:int -> unit) ->
  's Checkpoint.codec ->
  's ->
  shards:('s -> Sink.any array) ->
  finalize:('s -> 'r) ->
  Stream_source.t ->
  ('r, Checkpoint.error) result
(** {!feed_all_parallel} with crash tolerance, then [finalize state].

    With [~resume:path], first load and fully validate the checkpoint
    (kind and seed pinned by the codec; any mismatch or corruption is a
    named {!Checkpoint.error}), restore it into [state], and continue
    the stream from the checkpointed position.  The sinks are derived
    from the (restored) typed state by [shards] — a single-sink drive
    passes [fun s -> [| Sink.pack sink s |]].  With [~checkpoint:path],
    atomically save [state] every [every] windows ([chunk × slots]
    edges — the points where all workers are quiescent) and once at
    end-of-stream (so the final file feeds the shard-merge workflow).
    [on_save] observes each save — e.g. [Sink.Observed.note_checkpoint]
    to put the bytes on the space books.  [pool]/[domains]/[schedule]/
    [costs] are as in {!feed_all_parallel}.

    Resuming with the same [chunk] and effective slot count re-windows
    the suffix on the same grid, so a resumed run matches the
    uninterrupted one bit for bit — results, [words] and every work
    counter (the [test_checkpoint] differential harness enforces this);
    results also match {!run_seq} regardless of grid. *)

val merge_shards : merge:('s -> 's -> unit) -> 's -> 's array -> 's
(** [merge_shards ~merge first rest] folds every state in [rest] into
    [first] (in array order — merges of stream shards should pass them
    stream-ordered) and returns [first]. *)

val run_sharded :
  ?chunk:int ->
  shards:int ->
  create:(unit -> 's) ->
  merge:('s -> 's -> unit) ->
  ('s, 'r) Sink.sink ->
  Stream_source.t ->
  'r
(** Edge-partition the stream into [shards] contiguous sub-streams
    ({!Stream_source.partition}), run an independent sink (from
    [create], same params/seed each time) over each, merge the final
    states left-to-right, and finalize the merged sink.  For the
    linear sketches of the paper the merged state is bit-for-bit the
    single-stream state (the merge-law qcheck properties pin this
    modulo the memo-eval counter families). *)
