(** A stream token in the general (edge-arrival) model: the pair
    [(set, element)] meaning "element [elt] belongs to set [set]",
    carrying a turnstile [sign] (+1 insertion, -1 deletion).

    Sets are identified by ints in [\[0, m)], elements by ints in
    [\[0, n)].  Duplicate pairs may appear in a stream; all algorithms
    in this repository are duplicate-tolerant as the paper requires
    (frequencies count multiplicity only where the analysis says so).

    In the turnstile extension each [(set, elt)] pair's multiplicity is
    the signed sum of its updates.  The linear sketches (F2 family)
    absorb either sign natively; insertion-only structures document
    their deletion behaviour at their [feed] points. *)

type t = { set : int; elt : int; sign : int }

val make : set:int -> elt:int -> t
(** An insertion ([sign = 1]).  Raises [Invalid_argument] on negative
    ids. *)

val signed : sign:int -> set:int -> elt:int -> t
(** A signed update: [~sign:1] inserts, [~sign:(-1)] deletes.  Raises
    [Invalid_argument] on negative ids or a sign outside {+1, -1}. *)

val net : t array -> (t * int) list
(** The turnstile multiset of a stream: each [(set, elt)] pair whose
    signed count (insertions minus deletions) is positive, as an
    insertion edge with that count, in first-occurrence order.  Pairs
    netting to zero or below drop out. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
