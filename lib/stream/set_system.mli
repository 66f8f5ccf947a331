(** In-memory set systems [(U, F)] — the ground truth against which
    streaming algorithms are evaluated.

    This module is NOT part of any streaming algorithm's space budget;
    it exists so that tests and benches can compute exact coverages,
    optimal solutions on small instances, and element frequencies
    (Definition 2.1's λ-common elements). *)

type t

val create : n:int -> m:int -> sets:int array array -> t
(** [create ~n ~m ~sets] builds a system over ground set [\[0, n)] with
    [m] sets.  [sets.(i)] lists the elements of set [i]; duplicates are
    removed and entries validated. *)

val of_edges : n:int -> m:int -> Edge.t list -> t
(** The system a (turnstile) edge stream describes: a pair belongs to
    its set iff its net count ({!Edge.net}) is positive.  Raises
    [Invalid_argument] on an out-of-range set or element id. *)

val n : t -> int
val m : t -> int
val set : t -> int -> int array
(** Elements of one set, sorted, duplicate-free. *)

val set_size : t -> int -> int
val total_size : t -> int
(** Σ |S| over all sets = number of distinct stream pairs. *)

val coverage : t -> int list -> int
(** [coverage t sel] is [|∪_{i ∈ sel} S_i|]. *)

val covered : t -> int list -> bool array
(** Indicator of covered elements for a selection. *)

val frequencies : t -> int array
(** [frequencies t].(e) = number of sets containing element [e]. *)

val common_elements : t -> threshold:int -> int
(** Number of elements whose frequency is at least [threshold] — the
    size of [U^cmn] at a given commonality level (Definition 2.1 with
    the polylog folded into the caller's threshold). *)

val edges : t -> Edge.t array
(** All (set, element) pairs in canonical (set-major) order. *)

val edge_stream : ?seed:int -> t -> Edge.t array
(** The edge set in a deterministic pseudorandom arbitrary order —
    the paper's adversarial edge-arrival stream surrogate.  Without
    [seed] the canonical order is returned. *)

val pp_summary : Format.formatter -> t -> unit
