(* Seeded churn transform for turnstile experiments: a fraction of the
   base stream's insertions are retracted again later in the stream,
   so a run must survive real deletions while the live (net-positive)
   suffix stays a plain insertion-only instance any offline baseline
   can score. *)

module Edge = Mkc_stream.Edge

let prob rng frac = Mkc_hashing.Splitmix.below rng 1_000_000 < int_of_float (frac *. 1e6)

let apply ~frac ~seed edges =
  if not (frac >= 0.0 && frac < 1.0) then
    invalid_arg "Churn.apply: frac must lie in [0, 1)";
  Array.iter
    (fun (e : Edge.t) ->
      if e.sign < 0 then invalid_arg "Churn.apply: base stream must be insertion-only")
    edges;
  let rng = Mkc_hashing.Splitmix.create seed in
  let out = ref [] in
  (* Deletions are queued FIFO behind their insertions and drain with
     probability 1/2 after each subsequent insert, so every retraction
     lands strictly after its insert at a geometrically distributed
     lag; leftovers flush at end-of-stream.  Net count per churned edge
     is exactly 0, per surviving edge exactly its base multiplicity. *)
  let pending = Queue.create () in
  Array.iter
    (fun (e : Edge.t) ->
      out := e :: !out;
      if prob rng frac then Queue.add e pending;
      if (not (Queue.is_empty pending)) && Mkc_hashing.Splitmix.below rng 2 = 0 then
        let d = Queue.pop pending in
        out := Edge.signed ~sign:(-1) ~set:d.set ~elt:d.elt :: !out)
    edges;
  Queue.iter
    (fun (d : Edge.t) -> out := Edge.signed ~sign:(-1) ~set:d.set ~elt:d.elt :: !out)
    pending;
  Array.of_list (List.rev !out)

let live edges =
  Mkc_stream.Edge.net edges
  |> List.concat_map (fun ((e : Edge.t), c) -> List.init c (fun _ -> e))
  |> Array.of_list
