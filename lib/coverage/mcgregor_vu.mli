(** Edge-arrival constant-factor baseline (McGregor–Vu, ICDT 2017 [34];
    also Bateni–Esfandiari–Mirrokni [12]) — the
    "Reporting / Edge Arrival / 1/(1−1/e−ε) / Õ(m/ε²)" row of Table 1.

    For each guess [z] of the optimal coverage, subsample elements at
    rate [Θ̃(k / (ε² z))] with a pairwise hash, store the induced
    sub-instance over ALL m sets (Õ(m/ε²) words across guesses, by the
    element-sampling lemma), and run greedy offline at the end of the
    pass; the best guess's greedy value scales back by the reciprocal
    sampling rate.  This is exactly the machinery the paper
    generalizes: its SmallSet subroutine (Figure 5) saves two extra α
    factors by also subsampling sets.

    This baseline anchors the α → O(1) end of the trade-off curve in
    experiments E1/E2. *)

type t

type result = { chosen : int list; coverage : float; words : int }

val create :
  m:int -> n:int -> k:int -> ?epsilon:float -> ?seed:int -> unit -> t
(** Default ε = 0.5, seed 1. *)

val feed : t -> Mkc_stream.Edge.t -> unit

val feed_planned :
  t -> Mkc_stream.Chunk_plan.t -> Mkc_stream.Edge.t array -> pos:int -> len:int -> unit
(** Chunked ingestion, equivalent to edge-by-edge {!feed}.  The plan is
    ignored (there is no deduplicated path); guesses are driven
    guess-outer for cache locality. *)

val finalize : t -> result
(** [coverage] is the scaled estimate of the reported cover's coverage;
    [chosen] has at most k set ids. *)

val words : t -> int

val sink : (t, result) Mkc_stream.Sink.sink
(** The baseline as a {!Mkc_stream.Sink}, for the {!Mkc_stream.Pipeline}
    drivers and the {!Mkc_core.Full_range} front-end. *)

val encode : t -> Mkc_obs.Json.t
(** Mutable state per guess (stored member lists verbatim, latest-first;
    pair counts; death flags); samplers re-create from the seed. *)

val restore : t -> Mkc_obs.Json.t -> (unit, string) Stdlib.result
(** Overlay an {!encode} payload onto a freshly {!create}d instance of
    the same dimensions and seed. *)

val merge_into : dst:t -> t -> unit
(** Fold a shard in, guess by guess: member lists concatenate (the
    shard fed the later suffix first), pair counts sum, a summed count
    over the cap kills the guess exactly as the single-stream run
    would. *)
