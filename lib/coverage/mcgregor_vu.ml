type guess = {
  z : int;
  sampler : Mkc_sketch.Sampler.Bernoulli.t option; (* None = rate 1 *)
  store : (int, int list ref) Hashtbl.t; (* set id -> sampled members *)
  mutable pairs : int;
  mutable dead : bool;
}

type t = {
  n : int;
  k : int;
  cap : int; (* per-guess stored-pair cap *)
  guesses : guess list;
}

type result = { chosen : int list; coverage : float; words : int }

let create ~m ~n ~k ?(epsilon = 0.5) ?(seed = 1) () =
  if k < 1 then invalid_arg "Mcgregor_vu.create: k must be >= 1";
  if epsilon <= 0.0 || epsilon > 1.0 then
    invalid_arg "Mcgregor_vu.create: epsilon must be in (0, 1]";
  let root = Mkc_hashing.Splitmix.create seed in
  let sample_const = 8.0 /. (epsilon *. epsilon) in
  let log2f x = Float.max 1.0 (Float.log2 (float_of_int (max 2 x))) in
  let cap =
    max 1024 (int_of_float (sample_const *. float_of_int m *. log2f (m * n) /. 8.0))
  in
  let top = Mkc_hashing.Hash_family.ceil_log2 (max 2 n) in
  let guesses =
    List.init (top - 1) (fun i ->
        let z = 1 lsl (i + 2) in
        let rate = Float.min 1.0 (sample_const *. float_of_int k /. float_of_int z) in
        {
          z;
          sampler =
            (if rate >= 1.0 then None
             else
               Some
                 (Mkc_sketch.Sampler.Bernoulli.create ~rate ~indep:4
                    ~seed:(Mkc_hashing.Splitmix.fork root i)));
          store = Hashtbl.create 64;
          pairs = 0;
          dead = false;
        })
  in
  { n; k; cap; guesses }

let rate_of g =
  match g.sampler with None -> 1.0 | Some s -> Mkc_sketch.Sampler.Bernoulli.rate s

let feed_guess t g (e : Mkc_stream.Edge.t) =
  if not g.dead then begin
    let keep =
      match g.sampler with
      | None -> true
      | Some s -> Mkc_sketch.Sampler.Bernoulli.keep s e.elt
    in
    if keep then begin
      (match Hashtbl.find_opt g.store e.set with
      | Some members -> members := e.elt :: !members
      | None -> Hashtbl.replace g.store e.set (ref [ e.elt ]));
      g.pairs <- g.pairs + 1;
      if g.pairs > t.cap then begin
        (* this guess of OPT was too small: its sample is too dense *)
        g.dead <- true;
        Hashtbl.reset g.store;
        g.pairs <- 0
      end
    end
  end

let feed t e = List.iter (fun g -> feed_guess t g e) t.guesses

let feed_planned t (_ : Mkc_stream.Chunk_plan.t) edges ~pos ~len =
  (* No deduplicated path: the plan is ignored.  Guess-outer instead —
     one guess's sampler and store stay hot across the chunk; per-guess
     edge order is unchanged. *)
  let stop = pos + len - 1 in
  List.iter
    (fun g ->
      for i = pos to stop do
        feed_guess t g (Array.unsafe_get edges i)
      done)
    t.guesses

let finalize t =
  let best = ref { chosen = []; coverage = 0.0; words = 0 } in
  List.iter
    (fun g ->
      if (not g.dead) && Hashtbl.length g.store > 0 then begin
        let sets =
          Hashtbl.fold (fun id members acc -> (id, Array.of_list !members) :: acc) g.store []
          (* Sorted by set id: greedy breaks coverage ties by candidate
             order, which must not depend on the store's layout (a
             restored store has a different layout). *)
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        let r = Greedy.run_on_subsets ~n:t.n ~sets ~k:t.k in
        (* accept a guess only when greedy's sampled coverage is in the
           regime the element-sampling lemma calibrates: ~ rate·z *)
        let expected = rate_of g *. float_of_int g.z in
        if float_of_int r.coverage >= expected /. 8.0 then begin
          let scaled = float_of_int r.coverage /. rate_of g in
          if scaled > !best.coverage then
            best := { chosen = r.chosen; coverage = scaled; words = 0 }
        end
      end)
    t.guesses;
  let words =
    List.fold_left (fun acc g -> acc + (2 * g.pairs) + 4) 0 t.guesses
  in
  { !best with words }

let words t = List.fold_left (fun acc g -> acc + (2 * g.pairs) + 4) 0 t.guesses

module Ck = Mkc_stream.Checkpoint
module Json = Mkc_obs.Json

let encode_guess g =
  let store =
    Hashtbl.fold (fun id members acc -> (id, !members) :: acc) g.store []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (id, members) ->
           Json.Array [ Json.Int id; Ck.J.int_array (Array.of_list members) ])
  in
  Json.Object
    [
      ("pairs", Json.Int g.pairs);
      ("dead", Json.Bool g.dead);
      ("store", Json.Array store);
    ]

let ( let* ) = Result.bind

let restore_guess g j =
  let* pairs = Ck.J.int_field "pairs" j in
  let* dead =
    let* v = Ck.J.field "dead" j in
    match v with Json.Bool b -> Ok b | _ -> Ck.J.err "field \"dead\" is not a bool"
  in
  let* store = Ck.J.list_field "store" j in
  Hashtbl.reset g.store;
  let* () =
    Ck.J.map_result
      (fun entry ->
        match Json.to_list entry with
        | Some [ id; members ] ->
            let* id = Ck.J.to_int id in
            let* members = Ck.J.to_int_array members in
            Hashtbl.replace g.store id (ref (Array.to_list members));
            Ok ()
        | _ -> Ck.J.err "expected [set, members] store entry")
      store
    |> Result.map (fun (_ : unit list) -> ())
  in
  g.pairs <- pairs;
  g.dead <- dead;
  Ok ()

let encode t = Json.Object [ ("guesses", Json.Array (List.map encode_guess t.guesses)) ]

let restore t j =
  let* gs = Ck.J.list_field "guesses" j in
  let* () =
    if List.length gs <> List.length t.guesses then
      Ck.J.err "mcgregor_vu: expected %d guesses, got %d" (List.length t.guesses)
        (List.length gs)
    else Ok ()
  in
  List.fold_left
    (fun acc (i, (g, gj)) ->
      let* () = acc in
      match restore_guess g gj with
      | Ok () -> Ok ()
      | Error e -> Ck.J.err "mcgregor_vu guess %d: %s" i e)
    (Ok ())
    (List.mapi (fun i p -> (i, p)) (List.combine t.guesses gs))

(* Same merge law as SmallSet's sub-instances: element sampling is a
   pure hash (same seeds both sides), so shard stores are disjoint-in-
   time slices; member lists are latest-first, the later shard prepends;
   pair counts are monotone until death, so a summed count over the cap
   reproduces the single-run termination. *)
let merge_guess t dst src =
  if src.dead || dst.dead then begin
    dst.dead <- true;
    Hashtbl.reset dst.store;
    dst.pairs <- 0
  end
  else begin
    Hashtbl.fold (fun id members acc -> (id, !members) :: acc) src.store []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun (id, members) ->
           match Hashtbl.find_opt dst.store id with
           | Some existing -> existing := members @ !existing
           | None -> Hashtbl.replace dst.store id (ref members));
    dst.pairs <- dst.pairs + src.pairs;
    if dst.pairs > t.cap then begin
      dst.dead <- true;
      Hashtbl.reset dst.store;
      dst.pairs <- 0
    end
  end

let merge_into ~dst src =
  if List.length dst.guesses <> List.length src.guesses then
    invalid_arg "Mcgregor_vu.merge_into: guess ladders differ";
  List.iter2 (fun d s -> merge_guess dst d s) dst.guesses src.guesses

let sink : (t, result) Mkc_stream.Sink.sink =
  (module struct
    type nonrec t = t
    type nonrec result = result

    let feed = feed
    let feed_planned = feed_planned
    let finalize = finalize
    let words = words
    let words_breakdown t = [ ("mcgregor_vu", words t) ]
  end)
