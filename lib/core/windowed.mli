(** Sliding-window and exponential-decay coverage estimation.

    The general streaming model of the paper is insertion + deletion;
    freshness-weighted queries ("coverage over the recent stream") are
    the other practical face of the same machinery.  This module cuts
    the edge stream into fixed-size epochs, runs a fresh {!Estimate}
    instance per epoch, and checkpoints each finished epoch's state
    ({!Estimate.encode}, held as JSON text) into a ring of the last
    [window] epochs.  A query parses and merges the held states
    oldest-first into one estimator by
    the shard-merge path ({!Estimate.merge_into}) plus the in-flight
    epoch, so the windowed answer is exactly what a fresh single pass
    over the live suffix would produce (L0 and the linear sketches
    merge losslessly; only work counters and the decision memo differ,
    and neither feeds the estimate).

    With [decay] = λ the same ring instead feeds the {!Decay} monoid:
    per-epoch finalized estimates are folded oldest-first, each step
    aging the accumulated mass by λ per epoch — an exponential-decay
    estimate in O(window) extra space.

    Telemetry: [window.epochs] (live epochs, gauge), [window.rolled]
    and [window.swaps] (counters), and a [window.decay_merge] span
    around each query-time merge — all through the global registry, so
    [--telemetry] picks them up at no extra plumbing. *)

(** The decay-merge monoid: [(v, span)] is a mass [v] covering [span]
    epochs.  [combine ~lambda a b] (with [b] the newer operand) is
    [(b.v + λ^b.span · a.v, a.span + b.span)] — associative, with
    {!Decay.identity} [(0, 0)] as two-sided identity (the laws
    test_window checks). *)
module Decay : sig
  type acc = { v : float; span : int }

  val identity : acc
  val combine : lambda:float -> acc -> acc -> acc

  val of_estimate : float -> acc
  (** One epoch's finalized estimate as a span-1 element. *)
end

type t

val create :
  ?epsilon:float -> ?decay:float -> Params.t -> window:int -> epoch_edges:int -> unit -> t
(** [create params ~window ~epoch_edges ()] retains the last [window]
    epochs of [epoch_edges] edges each.  [decay] switches the query to
    the exponential-decay fold (must lie in (0, 1)); [epsilon]
    (default 0.1) is the {!Mkc_coverage.Sieve.improves} threshold for
    champion swaps.  Raises [Invalid_argument] on out-of-range
    arguments, by name. *)

val feed : t -> Mkc_stream.Edge.t -> unit
val feed_planned :
  t -> Mkc_stream.Chunk_plan.t -> Mkc_stream.Edge.t array -> pos:int -> len:int -> unit
(** Chunked feeds split at epoch boundaries, so rolls land at exactly
    the per-edge drive's edge counts (bit-for-bit equal states across
    driving modes).  The given plan serves a chunk no roll cuts; each
    piece of a cut chunk is planned afresh into the window's own
    scratch. *)

type result = {
  estimate : float;  (** windowed (or decayed) coverage estimate *)
  outcome : Solution.outcome option;
      (** the merged window's winning oracle outcome (witness ids) *)
  epochs : int;  (** epochs contributing to the answer, partial included *)
  rolled : int;  (** total epochs rolled over the whole run *)
  swaps : int;  (** champion swaps decided by the sieve comparator *)
}

val finalize : t -> result

val words : t -> int
(** Current estimator plus every held epoch payload — a checkpoint the
    process holds is real space (same accounting as
    {!Mkc_stream.Sink.Observed.note_checkpoint}). *)

val words_breakdown : t -> (string * int) list

val stats_totals : t -> (string * int) list
(** {!Estimate.stats_totals} of the in-flight epoch (what the
    telemetry probes sample mid-run). *)

val params : t -> Params.t

val current : t -> Estimate.t
(** The in-flight epoch's estimator.  Telemetry probes must re-read
    this per sample — it is replaced on every roll. *)

val rolled : t -> int
val swaps : t -> int

val sink : (t, result) Mkc_stream.Sink.sink
