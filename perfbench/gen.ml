(* Seeded input generator and answer key for the perfbench workloads.

   [gen.exe WORKLOAD SEED DIR] writes the workload's edge stream into
   DIR (text, MKCEDG v1 or MKCEDG v2 with deletions), plus, for the
   windowed workload, a second file holding only the live suffix, and a
   JSON answer key [DIR/WORKLOAD.key.json] with the instance make-up,
   the mkc flags, and the coverage of this file's own greedy.

   Nothing here calls the maxkcover library: the random source, the
   file writers, the net-multiset and the greedy are independent of the
   code under test, so the band checks in run.py compare the program
   against computations made apart from it. *)

(* ---------- SplitMix64, seeded per workload ---------- *)

type rng = { mutable s : int64 }

let rng_create seed = { s = Int64.of_int seed }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let below r bound = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int bound))

let shuffle r sets elts =
  for i = Array.length sets - 1 downto 1 do
    let j = below r (i + 1) in
    let s = sets.(i) and e = elts.(i) in
    sets.(i) <- sets.(j);
    elts.(i) <- elts.(j);
    sets.(j) <- s;
    elts.(j) <- e
  done

(* ---------- workloads ---------- *)

type stream = { sets : int array; elts : int array; signs : int array (* +1 / -1 *) }

type workload = {
  name : string;
  kind : [ `Uniform | `Planted | `Churn ];
  tag : int; (* mixed into the seed so workloads never share a random sequence *)
  n : int;
  m : int;
  k : int;
  alpha : float;
  window : int; (* epochs retained; the windowed drive of the traced run uses it too *)
  epoch_edges : int;
  binary : bool;
}

let workloads =
  [
    {
      name = "uniform-text";
      kind = `Uniform;
      tag = 1;
      n = 16384;
      m = 4096;
      k = 32;
      alpha = 8.0;
      window = 2;
      epoch_edges = 180_000;
      binary = false;
    };
    {
      name = "planted-report";
      kind = `Planted;
      tag = 2;
      n = 16384;
      m = 2048;
      k = 16;
      alpha = 4.0;
      window = 2;
      epoch_edges = 110_000;
      binary = true;
    };
    {
      name = "churn-window";
      kind = `Churn;
      tag = 3;
      n = 16384;
      m = 1024;
      k = 32;
      alpha = 8.0;
      window = 2;
      epoch_edges = 60_000;
      binary = true;
    };
  ]

let uniform_edges = 450_000
let churn_base_edges = 150_000
let churn_frac_ppm = 300_000

(* i.i.d. (set, element) pairs: a uniform instance already in arrival
   order, with the occasional repeated pair the model allows. *)
let uniform r ~n ~m ~edges =
  let sets = Array.init edges (fun _ -> below r m) in
  let elts = Array.init edges (fun _ -> below r n) in
  (sets, elts)

(* A few-large planted instance: k disjoint sets of n/(2k) elements
   cover half the universe; every other set draws n/(8k) elements, half
   from the planted region and half from the rest.  The planted sets
   are an optimal k-cover, so their coverage n/2 certifies OPT. *)
let planted r ~n ~m ~k =
  let covered = n / 2 and noise = n / (8 * k) in
  let perm = Array.init m (fun i -> i) in
  shuffle r perm (Array.make m 0);
  let acc_s = ref [] and acc_e = ref [] in
  for i = 0 to k - 1 do
    for e = covered * i / k to (covered * (i + 1) / k) - 1 do
      acc_s := perm.(i) :: !acc_s;
      acc_e := e :: !acc_e
    done
  done;
  for i = k to m - 1 do
    for _ = 1 to noise do
      let e = if below r 2 = 0 then below r covered else covered + below r (n - covered) in
      acc_s := perm.(i) :: !acc_s;
      acc_e := e :: !acc_e
    done
  done;
  let sets = Array.of_list !acc_s and elts = Array.of_list !acc_e in
  shuffle r sets elts;
  (sets, elts, List.init k (fun i -> perm.(i)), covered)

(* Turnstile churn: each insertion is retracted later with probability
   [churn_frac_ppm]/10^6; pending retractions drain FIFO with
   probability 1/2 after each insertion and flush at the end. *)
let churn r (sets, elts) =
  let out_s = ref [] and out_e = ref [] and out_g = ref [] in
  let emit s e g =
    out_s := s :: !out_s;
    out_e := e :: !out_e;
    out_g := g :: !out_g
  in
  let pending = Queue.create () in
  Array.iteri
    (fun i s ->
      emit s elts.(i) 1;
      if below r 1_000_000 < churn_frac_ppm then Queue.add (s, elts.(i)) pending;
      if (not (Queue.is_empty pending)) && below r 2 = 0 then begin
        let ds, de = Queue.pop pending in
        emit ds de (-1)
      end)
    sets;
  Queue.iter (fun (ds, de) -> emit ds de (-1)) pending;
  let rev l = Array.of_list (List.rev l) in
  { sets = rev !out_s; elts = rev !out_e; signs = rev !out_g }

(* ---------- writers ---------- *)

let write_text path st =
  let oc = open_out_bin path in
  let b = Buffer.create (1 lsl 16) in
  Array.iteri
    (fun i s ->
      Buffer.add_string b (string_of_int s);
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int st.elts.(i));
      if st.signs.(i) < 0 then Buffer.add_string b " -1";
      Buffer.add_char b '\n';
      if Buffer.length b > 1 lsl 15 then begin
        Buffer.output_buffer oc b;
        Buffer.clear b
      end)
    st.sets;
  Buffer.output_buffer oc b;
  close_out oc

let fnv1a64 b =
  let h = ref 0xCBF29CE484222325L in
  Bytes.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    b;
  !h

(* MKCEDG: 48-byte header (magic, version, n, m, count, FNV-1a 64 of
   the columns), then the set column, the element column, and for v2 a
   one-byte sign column (0 = insert, 1 = delete); all ints int64 LE. *)
let write_mkcedg path st ~n ~m =
  let count = Array.length st.sets in
  let signed = Array.exists (fun g -> g < 0) st.signs in
  let body = Bytes.create ((if signed then 17 else 16) * count) in
  for i = 0 to count - 1 do
    Bytes.set_int64_le body (8 * i) (Int64.of_int st.sets.(i));
    Bytes.set_int64_le body (8 * (count + i)) (Int64.of_int st.elts.(i));
    if signed then Bytes.set body ((16 * count) + i) (if st.signs.(i) < 0 then '\001' else '\000')
  done;
  let header = Bytes.create 48 in
  Bytes.blit_string (if signed then "MKCEDG2\n" else "MKCEDG1\n") 0 header 0 8;
  List.iteri
    (fun i v -> Bytes.set_int64_le header (8 * (i + 1)) v)
    [
      Int64.of_int (if signed then 2 else 1);
      Int64.of_int n;
      Int64.of_int m;
      Int64.of_int count;
      fnv1a64 body;
    ];
  let oc = open_out_bin path in
  output_bytes oc header;
  output_bytes oc body;
  close_out oc

(* ---------- offline reference: net multiset and greedy ---------- *)

(* Distinct elements of each set among the pairs whose net count
   (insertions minus deletions) is positive. *)
let members ~n ~m st =
  let net = Hashtbl.create (Array.length st.sets) in
  Array.iteri
    (fun i s ->
      let key = (s * n) + st.elts.(i) in
      Hashtbl.replace net key (st.signs.(i) + Option.value ~default:0 (Hashtbl.find_opt net key)))
    st.sets;
  let lists = Array.make m [] in
  Hashtbl.iter (fun key c -> if c > 0 then lists.(key / n) <- (key mod n) :: lists.(key / n)) net;
  Array.map Array.of_list lists

(* Plain greedy max k-cover: k rounds, each taking the set with the
   largest marginal gain (lowest id on ties). *)
let greedy ~n ~k mem =
  let covered = Array.make n false and total = ref 0 in
  for _ = 1 to k do
    let best = ref (-1) and best_gain = ref 0 in
    Array.iteri
      (fun s elts ->
        let g = Array.fold_left (fun acc e -> if covered.(e) then acc else acc + 1) 0 elts in
        if g > !best_gain then begin
          best := s;
          best_gain := g
        end)
      mem;
    if !best >= 0 then begin
      Array.iter (fun e -> covered.(e) <- true) mem.(!best);
      total := !total + !best_gain
    end
  done;
  !total

(* ---------- main ---------- *)

let sub st ~pos =
  let len = Array.length st.sets - pos in
  { sets = Array.sub st.sets pos len; elts = Array.sub st.elts pos len; signs = Array.sub st.signs pos len }

let () =
  match Sys.argv with
  | [| _; name; seed; dir |] ->
      let w =
        match List.find_opt (fun w -> w.name = name) workloads with
        | Some w -> w
        | None ->
            prerr_endline ("gen: unknown workload " ^ name);
            exit 2
      in
      let r = rng_create ((int_of_string seed * 1_000_003) + w.tag) in
      let n = w.n and m = w.m and k = w.k in
      let inserts (sets, elts) = { sets; elts; signs = Array.make (Array.length sets) 1 } in
      let st, planted =
        match w.kind with
        | `Uniform -> (inserts (uniform r ~n ~m ~edges:uniform_edges), [])
        | `Planted ->
            let sets, elts, ids, cov = planted r ~n ~m ~k in
            (inserts (sets, elts), [ ("planted_sets", `List ids); ("planted_coverage", `Int cov) ])
        | `Churn -> (churn r (uniform r ~n ~m ~edges:churn_base_edges), [])
      in
      let edges = Array.length st.sets in
      let input = Filename.concat dir (name ^ if w.binary then ".mkce" else ".txt") in
      if w.binary then write_mkcedg input st ~n ~m else write_text input st;
      (* The windowed answer covers the last [window] full epochs plus
         the in-flight one: the stream from this edge on. *)
      let rolled = edges / w.epoch_edges in
      let suffix_start = (rolled - min rolled w.window) * w.epoch_edges in
      let windowed = w.kind = `Churn in
      let suffix = Filename.concat dir (name ^ ".suffix.mkce") in
      let scored =
        if not windowed then st
        else begin
          let live = sub st ~pos:suffix_start in
          write_mkcedg suffix live ~n ~m;
          live
        end
      in
      let g = greedy ~n ~k (members ~n ~m scored) in
      let deletions = Array.fold_left (fun acc s -> if s < 0 then acc + 1 else acc) 0 st.signs in
      let field (key, v) =
        Printf.sprintf "%S: %s" key
          (match v with
          | `Int i -> string_of_int i
          | `Float f -> Printf.sprintf "%.17g" f
          | `Str s -> Printf.sprintf "%S" s
          | `Bool b -> string_of_bool b
          | `List l -> "[" ^ String.concat ", " (List.map string_of_int l) ^ "]")
      in
      let fields =
        [
          ("workload", `Str name);
          ("seed", `Int (int_of_string seed));
          ("input", `Str input);
          ("format", `Str (if not w.binary then "text" else if deletions > 0 then "mkcedg2" else "mkcedg1"));
          ("n", `Int n);
          ("m", `Int m);
          ("k", `Int k);
          ("alpha", `Float w.alpha);
          ("edges", `Int edges);
          ("deletions", `Int deletions);
          ("greedy", `Int g);
          ("windowed", `Bool windowed);
          ("window", `Int w.window);
          ("epoch_edges", `Int w.epoch_edges);
        ]
        @ planted
        @
        if windowed then
          [ ("suffix", `Str suffix); ("suffix_start", `Int suffix_start); ("suffix_edges", `Int (edges - suffix_start)) ]
        else []
      in
      let oc = open_out (Filename.concat dir (name ^ ".key.json")) in
      output_string oc ("{" ^ String.concat ", " (List.map field fields) ^ "}\n");
      close_out oc
  | _ ->
      prerr_endline "usage: gen.exe WORKLOAD SEED DIR";
      exit 2
