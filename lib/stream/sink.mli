(** The one streaming interface every single-pass consumer implements.

    A sink is created fully parameterized (all randomness fixed by
    seeds), then driven through the edge stream — a chunk at a time
    with a shared {!Chunk_plan} ({!S.feed_planned}, the one ingestion
    path every {!Pipeline} chunked drive uses) or one edge at a time
    ({!S.feed}, the literal streaming model that the equivalence
    suites compare against) — and finally collapsed into its result
    ({!S.finalize}).  The two are REQUIRED to be observationally
    equivalent: for any split of the stream into chunks,
    [feed_planned] must leave the sink in exactly the state that
    edge-by-edge [feed] would.

    Implementations live next to their algorithms (e.g.
    {!Mkc_core.Estimate.sink}); this module only fixes the shape and
    provides the packing/adaptation glue:

    - [('s, 'r) sink] — a first-class module pairing a state type with
      its result type;
    - {!any} / {!Any} — the existential packing used to drive a
      heterogeneous fleet of sinks over one stream (the unit of
      scheduling for {!Pipeline.feed_all_parallel});
    - {!Set_arrival} — an adapter running a set-arrival algorithm
      (consume whole sets) on an edge stream whose edges arrive grouped
      by set (the canonical set-major order). *)

module type S = sig
  type t
  type result

  val feed : t -> Edge.t -> unit
  (** Consume one edge. *)

  val feed_planned : t -> Chunk_plan.t -> Edge.t array -> pos:int -> len:int -> unit
  (** Consume [edges.(pos .. pos+len-1)] in order, given a {!Chunk_plan}
      built for exactly that slice.  The pipeline builds one plan per
      chunk and shares it across every sink it drives, so the
      distinct-id grouping pass is paid once per chunk rather than once
      per sink.  Must be equivalent to [len] successive {!feed} calls:
      implementations restructure the work (hash decisions once per
      distinct id, instance-outer loops) but never reorder updates to
      any single structure.  Sinks with no deduplicated path ignore the
      plan. *)

  val finalize : t -> result
  (** Collapse the sink.  Sinks are single-shot: feeding after
      [finalize] is unspecified. *)

  val words : t -> int
  (** Retained 64-bit words (the space accounting of the paper). *)

  val words_breakdown : t -> (string * int) list
  (** [words] split by component, for the space experiments. *)
end

type ('s, 'r) sink = (module S with type t = 's and type result = 'r)
(** A sink implementation as a first-class module: ['s] is the mutable
    state, ['r] the finalize result. *)

type any = Any : ('s, 'r) sink * 's -> any
(** A sink with its result type hidden — the driveable unit.  Callers
    that packed the sink keep the typed state and finalize through it
    after driving. *)

val pack : ('s, 'r) sink -> 's -> any

(** Operations on packed sinks. *)
module Any : sig
  val feed : any -> Edge.t -> unit

  val feed_planned :
    any -> Chunk_plan.t -> Edge.t array -> pos:int -> len:int -> unit

  val words : any -> int
  val words_breakdown : any -> (string * int) list
end

val canonical_breakdown : (string * int) list -> (string * int) list
(** Canonicalize a {!S.words_breakdown}: duplicate keys merged by sum,
    result sorted by key.  Keys are dot-namespaced by convention
    (["oracle.large_common.l0"]), so the sorted list reads as a tree. *)

val prefix_breakdown : string -> (string * int) list -> (string * int) list
(** [prefix_breakdown p kvs] prepends [p ^ "."] to every key — how a
    composite sink namespaces the breakdowns of its children. *)

(** Instrumented wrapper around any sink: forwards every call to the
    wrapped sink unchanged (observed ≡ bare, by construction and by
    qcheck test) while sampling [words] / [words_breakdown] into a
    {!Mkc_obs.Space_profile} every [cadence] edges, plus once at
    finalize — so the profile's final point equals the sink's
    [words_breakdown] exactly.  Each sample is also fed to the optional
    {!Mkc_sketch.Space.Budget} watchdog (which may raise on overshoot
    in strict mode) and, when tracing is on, emitted as a
    ["space.words"] counter track. *)
module Observed : sig
  type ('s, 'r) st
  (** The wrapper's state around an [('s, 'r) sink]. *)

  val default_cadence : int
  (** 65536 edges between samples. *)

  val observe :
    ?cadence:int ->
    ?budget:Mkc_sketch.Space.Budget.t ->
    ('s, 'r) sink ->
    's ->
    (('s, 'r) st, 'r) sink * ('s, 'r) st
  (** Wrap a typed sink; drive the returned pair instead of the
      original.  Raises [Invalid_argument] if [cadence < 1]. *)

  val profile : ('s, 'r) st -> Mkc_obs.Space_profile.t

  val words : ('s, 'r) st -> int
  (** The observed totals — the inner sink's {!S.words} plus any
      {!note_checkpoint} words: exactly what each profile sample and
      budget check sees. *)

  val words_breakdown : ('s, 'r) st -> (string * int) list
  (** Canonicalized observed breakdown (inner breakdown plus the
      ["checkpoint"] key when checkpoint words are held). *)

  val sampled_breakdown : ('s, 'r) st -> (string * int) list
  (** The breakdown the most recent sample recorded — the walk (and
      deferred-accumulator flush) that sample already paid for.  Inside
      a {!set_on_sample} callback this equals {!words_breakdown} at
      zero cost; the telemetry probes read it so a cadence sample walks
      the sketches exactly once.  Before the first sample it falls back
      to a fresh {!words_breakdown}. *)

  val state : ('s, 'r) st -> 's
  (** The wrapped sink's state — e.g. to aim a {!Checkpoint.codec} at
      the inner sink ([Checkpoint.map_codec Observed.state codec]). *)

  val busy_ns : ('s, 'r) st -> int
  (** Cumulative ns spent inside the inner sink's chunk feeds
      ([feed_planned]) over the wrapper's whole lifetime —
      monotone, never reset per window, so the adaptive scheduler and
      [mkc top] read a stable signal.  The per-edge [feed] path is not
      timed. *)

  val note_checkpoint : ('s, 'r) st -> words:int -> unit
  (** Record the size of the most recent serialized checkpoint.  The
      words join {!S.words} and appear under a ["checkpoint"] breakdown
      key (and therefore in every subsequent profile sample and budget
      check): a checkpoint the process holds or writes is real space the
      paper's accounting must see.  Raises [Invalid_argument] on a
      negative size. *)

  val sample : ('s, 'r) st -> unit
  (** Record a sample now — for drivers that finalize through the
      original typed handle rather than the wrapper. *)

  val set_on_sample : ('s, 'r) st -> (edges:int -> words:int -> unit) -> unit
  (** Register a cadence fan-out callback, invoked on every sample
      (cadence crossings and the finalize sample) after the profile
      point is recorded and before the budget watchdog runs — so a
      strict-mode abort still delivers the final sample.  This is how
      [--telemetry] ties a {!Mkc_obs.Telemetry.Recorder} to the
      existing sampling cadence.  Last registration wins. *)

  type observed_any = {
    osink : any;  (** drive this instead of the original *)
    oprofile : Mkc_obs.Space_profile.t;
    osample : unit -> unit;
        (** record a final sample before finalizing out-of-band *)
    obusy_ns : unit -> int;  (** {!busy_ns} of the wrapped shard *)
  }

  val observe_any : ?cadence:int -> ?budget:Mkc_sketch.Space.Budget.t -> any -> observed_any
  (** {!observe} for packed sinks (e.g. each element of
      {!Mkc_core.Estimate.shards} before {!Pipeline.feed_all_parallel}).
      Sharing one [budget] across several observed shards is only safe
      when they are driven from one domain; the parallel CLI path
      checks the budget once against total words at finalize instead. *)
end

(** A transparent progress tap: forwards every call unchanged and
    invokes [notify ~edges] with the cumulative edge count once per
    feed call.  Policy-free — the CLI's [--progress] throttles by wall
    clock inside the callback. *)
module Tap : sig
  type ('s, 'r) st

  val tap :
    ('s, 'r) sink -> 's -> notify:(edges:int -> unit) -> (('s, 'r) st, 'r) sink * ('s, 'r) st

  val state : ('s, 'r) st -> 's
  (** The wrapped sink's state (codec plumbing, as in
      {!Observed.state}). *)
end

(** Run a set-arrival algorithm (e.g. {!Mkc_coverage.Sieve},
    {!Mkc_coverage.Mv_set_arrival}) as an edge sink.

    Buffers the members of the current set and hands the completed set
    to [feed_set] when the set id changes (or at finalize), so it is
    only faithful on streams where each set's edges arrive
    contiguously — exactly the set-arrival orders those baselines
    require.  This is the adapter the baseline comparisons use to share
    the {!Pipeline} drivers with the edge-arrival algorithms. *)
module Set_arrival : sig
  type 'r t

  val create :
    feed_set:(int -> int array -> unit) ->
    finalize:(unit -> 'r) ->
    words:(unit -> int) ->
    'r t

  val feed : 'r t -> Edge.t -> unit

  val feed_planned : 'r t -> Chunk_plan.t -> Edge.t array -> pos:int -> len:int -> unit
  (** Replays the chunk edge by edge; the plan is ignored. *)

  val finalize : 'r t -> 'r

  val sink : unit -> ('r t, 'r) sink
  (** The first-class module instance over this adapter. *)
end
