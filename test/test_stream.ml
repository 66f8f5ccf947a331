(* Tests for the streaming substrate: edges, set systems, stream sources,
   instance statistics. *)

module Edge = Mkc_stream.Edge
module Ss = Mkc_stream.Set_system
module Src = Mkc_stream.Stream_source
module Stats = Mkc_stream.Stats

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let tiny () =
  (* U = {0..5}, F = { {0,1,2}, {2,3}, {4}, {} } *)
  Ss.create ~n:6 ~m:4 ~sets:[| [| 0; 1; 2 |]; [| 2; 3 |]; [| 4 |]; [||] |]

let test_edge_make_and_compare () =
  let a = Edge.make ~set:1 ~elt:2 and b = Edge.make ~set:1 ~elt:3 in
  checkb "ordering" true (Edge.compare a b < 0);
  checkb "equality" true (Edge.equal a (Edge.make ~set:1 ~elt:2));
  Alcotest.check_raises "negative ids rejected"
    (Invalid_argument "Edge.make: ids must be non-negative") (fun () ->
      ignore (Edge.make ~set:(-1) ~elt:0))

(* The net multiset keeps first-occurrence order whatever the pair
   order, counts multiplicities, and drops pairs netting to <= 0. *)
let test_edge_net () =
  let ins set elt = Edge.make ~set ~elt and del set elt = Edge.signed ~sign:(-1) ~set ~elt in
  let stream =
    [| ins 5 1; ins 0 9; del 3 3; ins 5 1; ins 2 2; del 0 9; ins 3 3; ins 0 9; ins 0 9; del 5 1 |]
  in
  let got = List.map (fun ((e : Edge.t), c) -> (e.set, e.elt, e.sign, c)) (Edge.net stream) in
  checkb "pairs, counts, order" true (got = [ (5, 1, 1, 1); (0, 9, 1, 2); (2, 2, 1, 1) ]);
  checkb "empty stream" true (Edge.net [||] = [])

let test_system_dedup () =
  let s = Ss.create ~n:4 ~m:1 ~sets:[| [| 1; 1; 3; 3; 3; 0 |] |] in
  checki "duplicates removed" 3 (Ss.set_size s 0);
  checkb "sorted" true (Ss.set s 0 = [| 0; 1; 3 |])

let test_system_validation () =
  Alcotest.check_raises "element out of range"
    (Invalid_argument "Set_system.create: element out of range") (fun () ->
      ignore (Ss.create ~n:2 ~m:1 ~sets:[| [| 5 |] |]));
  Alcotest.check_raises "wrong set count"
    (Invalid_argument "Set_system.create: |sets| <> m") (fun () ->
      ignore (Ss.create ~n:2 ~m:3 ~sets:[| [||] |]))

let test_coverage () =
  let s = tiny () in
  checki "single set" 3 (Ss.coverage s [ 0 ]);
  checki "overlapping union" 4 (Ss.coverage s [ 0; 1 ]);
  checki "all sets" 5 (Ss.coverage s [ 0; 1; 2; 3 ]);
  checki "empty selection" 0 (Ss.coverage s []);
  checki "duplicate selection" 3 (Ss.coverage s [ 0; 0 ])

let test_covered_indicator () =
  let s = tiny () in
  let mark = Ss.covered s [ 1 ] in
  checkb "covers 2 and 3 only" true
    (mark = [| false; false; true; true; false; false |])

let test_frequencies () =
  let s = tiny () in
  checkb "frequency vector" true (Ss.frequencies s = [| 1; 1; 2; 1; 1; 0 |])

let test_common_elements () =
  let s = tiny () in
  checki "threshold 2" 1 (Ss.common_elements s ~threshold:2);
  checki "threshold 1" 5 (Ss.common_elements s ~threshold:1)

let test_total_size_and_edges () =
  let s = tiny () in
  checki "total size" 6 (Ss.total_size s);
  let es = Ss.edges s in
  checki "edge count" 6 (Array.length es);
  (* canonical order is set-major *)
  checkb "first edge" true (Edge.equal es.(0) (Edge.make ~set:0 ~elt:0))

let test_of_edges_roundtrip () =
  let s = tiny () in
  let s' = Ss.of_edges ~n:6 ~m:4 (Array.to_list (Ss.edges s)) in
  for i = 0 to 3 do
    checkb "sets preserved" true (Ss.set s i = Ss.set s' i)
  done

let test_edge_stream_is_permutation () =
  let s = tiny () in
  let sorted a =
    let a = Array.copy a in
    Array.sort Edge.compare a;
    a
  in
  let canonical = sorted (Ss.edges s) in
  let shuffled = sorted (Ss.edge_stream ~seed:42 s) in
  checkb "same multiset of edges" true (canonical = shuffled)

let test_edge_stream_seed_changes_order () =
  let s =
    Ss.create ~n:64 ~m:8 ~sets:(Array.init 8 (fun i -> Array.init 8 (fun j -> (8 * i) + j)))
  in
  let a = Ss.edge_stream ~seed:1 s and b = Ss.edge_stream ~seed:2 s in
  checkb "different seeds shuffle differently" false (a = b)

let test_stream_source_iter_fold () =
  let s = tiny () in
  let src = Src.of_system s in
  checki "length" 6 (Src.length src);
  let count = ref 0 in
  Src.iter (fun _ -> incr count) src;
  checki "iter visits all" 6 !count;
  let total = Src.fold (fun acc (e : Edge.t) -> acc + e.elt) 0 src in
  checki "fold over elements" (0 + 1 + 2 + 2 + 3 + 4) total

let test_stream_source_save_load () =
  let s = tiny () in
  let src = Src.of_system ~seed:5 s in
  let path = Filename.temp_file "mkc_stream" ".txt" in
  Fun.protect
    ~finally:(fun () -> Stdlib.Sys.remove path)
    (fun () ->
      Src.save src path;
      let loaded = Src.load path in
      checkb "roundtrip" true (Src.to_array src = Src.to_array loaded))

let test_stream_source_load_messy () =
  (* Tabs, repeated spaces, leading/trailing whitespace, blank lines and
     CR line-endings must all parse to the same edges. *)
  let path = Filename.temp_file "mkc_messy" ".txt" in
  Fun.protect
    ~finally:(fun () -> Stdlib.Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "0\t1\n  2   3  \n\n4 5\t\n6\t\t7\r\n";
      close_out oc;
      let loaded = Src.to_array (Src.load path) in
      checkb "messy whitespace tolerated" true
        (loaded
        = [|
            Edge.make ~set:0 ~elt:1;
            Edge.make ~set:2 ~elt:3;
            Edge.make ~set:4 ~elt:5;
            Edge.make ~set:6 ~elt:7;
          |]))

let test_stream_source_load_malformed () =
  let path = Filename.temp_file "mkc_bad" ".txt" in
  Fun.protect
    ~finally:(fun () -> Stdlib.Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "0 1\n2 x\n";
      close_out oc;
      checkb "malformed line raises" true
        (try
           ignore (Src.load path);
           false
         with Failure _ -> true))

let test_stream_source_chunks () =
  let edges = Array.init 25 (fun i -> Edge.make ~set:i ~elt:(i * 2)) in
  let src = Src.of_array edges in
  let seen = ref [] and calls = ref 0 in
  Src.chunks ~chunk:8
    (fun a ~pos ~len ->
      incr calls;
      for i = pos to pos + len - 1 do
        seen := a.(i) :: !seen
      done)
    src;
  checki "ceil(25/8) chunks" 4 !calls;
  checkb "chunks cover the stream in order" true
    (Array.of_list (List.rev !seen) = edges);
  Alcotest.check_raises "chunk must be positive"
    (Invalid_argument "Stream_source.chunks: chunk must be >= 1") (fun () ->
      Src.chunks ~chunk:0 (fun _ ~pos:_ ~len:_ -> ()) src)

let test_stream_source_max_ids () =
  let src = Src.of_array [| Edge.make ~set:3 ~elt:9; Edge.make ~set:1 ~elt:0 |] in
  checkb "max ids" true (Src.max_ids src = (4, 10))

let test_stats_histogram () =
  let s = tiny () in
  checkb "histogram" true
    (Stats.frequency_histogram s = [ (0, 1); (1, 4); (2, 1) ])

let test_stats_ucmn () =
  let s = tiny () in
  (* m = 4; lambda = 2 -> threshold m/lambda = 2: one element (elt 2) *)
  checki "ucmn λ=2" 1 (Stats.ucmn_size s ~lambda:2.0);
  checki "max frequency" 2 (Stats.max_frequency s)

let test_stats_contribution_profile () =
  let s = tiny () in
  let prof = Stats.contribution_profile s [ 0; 1; 2 ] in
  checkb "disjoint contributions" true (prof = [| 3; 1; 1 |]);
  (* contributions sum to the coverage *)
  checki "sum = coverage" (Ss.coverage s [ 0; 1; 2 ]) (Array.fold_left ( + ) 0 prof)

(* Regression: every emitted chunk is non-empty, in particular when the
   stream length is an exact multiple of the chunk size (an off-by-one
   there would hand sinks a zero-length slice — and hand the resumable
   driver a phantom chunk boundary). *)
let test_chunks_never_empty () =
  let edges n = Array.init n (fun i -> Edge.make ~set:i ~elt:i) in
  List.iter
    (fun (n, chunk) ->
      let lens = ref [] in
      Src.chunks ~chunk (fun _ ~pos:_ ~len -> lens := len :: !lens) (Src.of_array (edges n));
      let lens = List.rev !lens in
      checkb
        (Printf.sprintf "n=%d chunk=%d: no empty chunk" n chunk)
        true
        (List.for_all (fun l -> l >= 1) lens);
      checki
        (Printf.sprintf "n=%d chunk=%d: chunk count" n chunk)
        ((n + chunk - 1) / chunk)
        (List.length lens);
      checki
        (Printf.sprintf "n=%d chunk=%d: lengths sum to n" n chunk)
        n
        (List.fold_left ( + ) 0 lens))
    [ (8, 4); (12, 4); (1, 4); (4, 4); (65536, 8192); (5, 2) ];
  (* the empty stream emits no chunks at all *)
  let fired = ref 0 in
  Src.chunks ~chunk:4 (fun _ ~pos:_ ~len:_ -> incr fired) (Src.of_array [||]);
  checki "empty stream: zero chunks" 0 !fired

let test_chunks_start () =
  let n = 20 in
  let src = Src.of_array (Array.init n (fun i -> Edge.make ~set:i ~elt:i)) in
  (* resuming from [start] re-chunks the suffix on the same grid *)
  let positions start =
    let out = ref [] in
    Src.chunks ~chunk:8 ~start (fun _ ~pos ~len -> out := (pos, len) :: !out) src;
    List.rev !out
  in
  checkb "start 0" true (positions 0 = [ (0, 8); (8, 8); (16, 4) ]);
  checkb "start 8 (chunk boundary)" true (positions 8 = [ (8, 8); (16, 4) ]);
  checkb "start at n: nothing" true (positions n = []);
  Alcotest.check_raises "negative start rejected"
    (Invalid_argument "Stream_source.chunks: start out of range") (fun () ->
      ignore (positions (-1)));
  Alcotest.check_raises "start beyond n rejected"
    (Invalid_argument "Stream_source.chunks: start out of range") (fun () ->
      ignore (positions (n + 1)))

let test_partition () =
  let n = 23 in
  let edges = Array.init n (fun i -> Edge.make ~set:i ~elt:(i * 2)) in
  let src = Src.of_array edges in
  List.iter
    (fun shards ->
      let parts = Src.partition ~shards src in
      checki (Printf.sprintf "%d shards" shards) shards (Array.length parts);
      (* concatenation restores the stream in order *)
      let rebuilt =
        Array.concat (Array.to_list (Array.map Src.to_array parts))
      in
      checkb
        (Printf.sprintf "%d shards: concat = original" shards)
        true (rebuilt = edges);
      (* balanced: sizes differ by at most one *)
      let sizes = Array.map Src.length parts in
      let mn = Array.fold_left min max_int sizes
      and mx = Array.fold_left max 0 sizes in
      checkb (Printf.sprintf "%d shards: balanced" shards) true (mx - mn <= 1))
    [ 1; 2; 3; 5; 23 ]

(* --- binary columnar edge format: round-trip + tamper matrix --- *)

module Ef = Mkc_stream.Edge_file

let with_tmp ext f =
  let path = Filename.temp_file "mkc_edge" ext in
  Fun.protect ~finally:(fun () -> Stdlib.Sys.remove path) (fun () -> f path)

let sample_edges () =
  Array.init 257 (fun i -> Edge.make ~set:(i * 7 mod 31) ~elt:(i * 13 mod 101))

let write_sample path =
  match Ef.write path (sample_edges ()) ~n:101 ~m:31 with
  | Ok (_ : int) -> ()
  | Error e -> Alcotest.failf "write failed: %s" (Ef.error_to_string e)

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let write_bytes path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let test_edge_file_roundtrip () =
  with_tmp ".txt" @@ fun tpath ->
  with_tmp ".mkce" @@ fun bpath ->
  let edges = sample_edges () in
  Src.save (Src.of_array edges) tpath;
  let text = Src.load tpath in
  Src.save_binary text ~n:101 ~m:31 bpath;
  checkb "binary sniff" true (Ef.is_binary bpath);
  checkb "text is not binary" false (Ef.is_binary tpath);
  let bin, n, m = Src.load_binary bpath in
  checki "header n" 101 n;
  checki "header m" 31 m;
  checkb "text->binary->read ≡ Stream_source.load" true
    (Src.to_array bin = Src.to_array text);
  (* and through the magic dispatcher *)
  checkb "load_auto on binary" true (Src.to_array (Src.load_auto bpath) = edges);
  checkb "load_auto on text" true (Src.to_array (Src.load_auto tpath) = edges);
  let _, tm, tn = Src.load_auto_dims tpath in
  checkb "text dims from max_ids" true (tm = 31 && tn = 101);
  let _, bm, bn = Src.load_auto_dims bpath in
  checkb "binary dims from header" true (bm = 31 && bn = 101)

let test_edge_file_empty () =
  with_tmp ".mkce" @@ fun bpath ->
  (match Ef.write bpath [||] ~n:0 ~m:0 with
  | Ok (_ : int) -> ()
  | Error e -> Alcotest.failf "write failed: %s" (Ef.error_to_string e));
  match Ef.read bpath with
  | Ok (edges, 0, 0) -> checki "no edges" 0 (Array.length edges)
  | Ok _ -> Alcotest.fail "wrong dims"
  | Error e -> Alcotest.failf "read failed: %s" (Ef.error_to_string e)

let test_edge_file_truncated () =
  with_tmp ".mkce" @@ fun bpath ->
  write_sample bpath;
  let s = read_bytes bpath in
  write_bytes bpath (String.sub s 0 (String.length s - 8));
  (match Ef.read bpath with
  | Error (Ef.Truncated _) -> ()
  | Error e -> Alcotest.failf "expected Truncated, got: %s" (Ef.error_to_string e)
  | Ok _ -> Alcotest.fail "truncated file accepted");
  (* shorter than the header *)
  write_bytes bpath (String.sub s 0 20);
  match Ef.read bpath with
  | Error (Ef.Truncated _) -> ()
  | Error e -> Alcotest.failf "expected Truncated, got: %s" (Ef.error_to_string e)
  | Ok _ -> Alcotest.fail "header stub accepted"

let test_edge_file_bad_magic () =
  with_tmp ".mkce" @@ fun bpath ->
  write_sample bpath;
  let b = Bytes.of_string (read_bytes bpath) in
  Bytes.set b 0 'X';
  write_bytes bpath (Bytes.to_string b);
  checkb "tampered magic is not binary" false (Ef.is_binary bpath);
  match Ef.read bpath with
  | Error (Ef.Bad_magic _) -> ()
  | Error e -> Alcotest.failf "expected Bad_magic, got: %s" (Ef.error_to_string e)
  | Ok _ -> Alcotest.fail "bad magic accepted"

let test_edge_file_bad_version () =
  with_tmp ".mkce" @@ fun bpath ->
  write_sample bpath;
  let b = Bytes.of_string (read_bytes bpath) in
  Bytes.set_int64_le b 8 9L;
  write_bytes bpath (Bytes.to_string b);
  match Ef.read bpath with
  | Error (Ef.Bad_version 9) -> ()
  | Error e -> Alcotest.failf "expected Bad_version 9, got: %s" (Ef.error_to_string e)
  | Ok _ -> Alcotest.fail "future version accepted"

let test_edge_file_checksum_mismatch () =
  with_tmp ".mkce" @@ fun bpath ->
  write_sample bpath;
  let b = Bytes.of_string (read_bytes bpath) in
  (* flip a column byte, leaving the header checksum stale *)
  Bytes.set b 51 (Char.chr (Char.code (Bytes.get b 51) lxor 1));
  write_bytes bpath (Bytes.to_string b);
  match Ef.read bpath with
  | Error (Ef.Checksum_mismatch _) -> ()
  | Error e ->
      Alcotest.failf "expected Checksum_mismatch, got: %s" (Ef.error_to_string e)
  | Ok _ -> Alcotest.fail "corrupted column accepted"

let test_edge_file_write_bounds () =
  with_tmp ".mkce" @@ fun bpath ->
  checkb "set id out of range rejected" true
    (match Ef.write bpath [| Edge.make ~set:31 ~elt:0 |] ~n:101 ~m:31 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "element id out of range rejected" true
    (match Ef.write bpath [| Edge.make ~set:0 ~elt:101 |] ~n:101 ~m:31 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- v2 (signed, turnstile) record + golden v1 compatibility --- *)

let signed_sample () =
  Array.init 64 (fun i ->
      Edge.signed
        ~sign:(if i mod 5 = 4 then -1 else 1)
        ~set:(i * 7 mod 31) ~elt:(i * 13 mod 101))

(* Test-local FNV-1a 64, to re-seal the header after deliberate column
   tampering (otherwise every tamper case collapses into
   Checksum_mismatch before reaching the named rejection under test). *)
let fnv1a64_str s ~pos ~len =
  let h = ref 0xCBF29CE484222325L in
  for i = pos to pos + len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code s.[i]));
    h := Int64.mul !h 0x100000001B3L
  done;
  !h

let reseal b = Bytes.set_int64_le b 40 (fnv1a64_str (Bytes.to_string b) ~pos:48 ~len:(Bytes.length b - 48))

let test_edge_file_v2_roundtrip () =
  with_tmp ".mkce" @@ fun bpath ->
  let edges = signed_sample () in
  (match Ef.write bpath edges ~n:101 ~m:31 with
  | Ok (size : int) ->
      (* 48-byte header + 16 bytes of id columns + 1 sign byte per edge *)
      checki "v2 size" (48 + (17 * Array.length edges)) size
  | Error e -> Alcotest.failf "write failed: %s" (Ef.error_to_string e));
  checkb "v2 magic" true
    (String.equal (String.sub (read_bytes bpath) 0 8) Ef.magic_v2);
  checkb "v2 sniffs as binary" true (Ef.is_binary bpath);
  (match Ef.read bpath with
  | Ok (got, 101, 31) -> checkb "signs round-trip" true (got = edges)
  | Ok _ -> Alcotest.fail "wrong dims"
  | Error e -> Alcotest.failf "read failed: %s" (Ef.error_to_string e));
  checkb "load_auto dispatches v2" true
    (Src.to_array (Src.load_auto bpath) = edges)

let test_edge_file_insertion_only_stays_v1 () =
  (* An all-positive stream written through the signed constructor must
     keep producing byte-identical v1 files — old readers stay valid. *)
  with_tmp ".mkce" @@ fun v1path ->
  with_tmp ".mkce" @@ fun spath ->
  write_sample v1path;
  let signed_pos =
    Array.map (fun (e : Edge.t) -> Edge.signed ~sign:1 ~set:e.set ~elt:e.elt) (sample_edges ())
  in
  (match Ef.write spath signed_pos ~n:101 ~m:31 with
  | Ok (_ : int) -> ()
  | Error e -> Alcotest.failf "write failed: %s" (Ef.error_to_string e));
  checkb "byte-identical v1 file" true
    (String.equal (read_bytes v1path) (read_bytes spath))

let test_edge_file_v2_bad_sign_byte () =
  with_tmp ".mkce" @@ fun bpath ->
  (match Ef.write bpath (signed_sample ()) ~n:101 ~m:31 with
  | Ok (_ : int) -> ()
  | Error e -> Alcotest.failf "write failed: %s" (Ef.error_to_string e));
  let b = Bytes.of_string (read_bytes bpath) in
  (* corrupt one sign byte, then re-seal so the checksum passes and the
     sign-column validator is what rejects *)
  Bytes.set b (48 + (16 * 64) + 3) '\007';
  reseal b;
  write_bytes bpath (Bytes.to_string b);
  match Ef.read bpath with
  | Error (Ef.Malformed msg) ->
      checkb "names the sign byte and edge" true
        (msg = "sign byte 7 out of range at edge 3")
  | Error e -> Alcotest.failf "expected Malformed, got: %s" (Ef.error_to_string e)
  | Ok _ -> Alcotest.fail "bad sign byte accepted"

let test_edge_file_version_magic_mismatch () =
  (* v1 magic carrying v2 fields (and vice versa) is Bad_version, never
     a read with the wrong column layout. *)
  with_tmp ".mkce" @@ fun bpath ->
  (match Ef.write bpath (signed_sample ()) ~n:101 ~m:31 with
  | Ok (_ : int) -> ()
  | Error e -> Alcotest.failf "write failed: %s" (Ef.error_to_string e));
  let v2 = read_bytes bpath in
  let b = Bytes.of_string v2 in
  Bytes.blit_string Ef.magic 0 b 0 8;
  write_bytes bpath (Bytes.to_string b);
  (match Ef.read bpath with
  | Error (Ef.Bad_version 2) -> ()
  | Error e -> Alcotest.failf "expected Bad_version 2, got: %s" (Ef.error_to_string e)
  | Ok _ -> Alcotest.fail "v1 magic with v2 fields accepted");
  let b = Bytes.of_string v2 in
  Bytes.set_int64_le b 8 1L;
  write_bytes bpath (Bytes.to_string b);
  (match Ef.read bpath with
  | Error (Ef.Bad_version 1) -> ()
  | Error e -> Alcotest.failf "expected Bad_version 1, got: %s" (Ef.error_to_string e)
  | Ok _ -> Alcotest.fail "v2 magic with version 1 accepted");
  (* truncating the sign column is caught by the length check *)
  write_bytes bpath (String.sub v2 0 (String.length v2 - 4));
  match Ef.read bpath with
  | Error (Ef.Truncated _) -> ()
  | Error e -> Alcotest.failf "expected Truncated, got: %s" (Ef.error_to_string e)
  | Ok _ -> Alcotest.fail "truncated sign column accepted"

(* The checked-in v1 binary: files written by pre-turnstile builds must
   keep loading through the magic dispatcher, forever. *)
let golden_v1_path = "golden_edges_v1.mkcedg"

let test_edge_file_golden_v1_loads () =
  checkb "golden sniffs as binary" true (Ef.is_binary golden_v1_path);
  let edges, n, m =
    match Ef.read golden_v1_path with
    | Ok r -> r
    | Error e -> Alcotest.failf "golden rejected: %s" (Ef.error_to_string e)
  in
  checki "golden n" 10 n;
  checki "golden m" 5 m;
  let expect =
    [| (0, 0); (1, 3); (2, 6); (0, 9); (3, 1); (4, 4); (2, 2); (1, 7) |]
  in
  checkb "golden edges decode" true
    (Array.map (fun (e : Edge.t) -> (e.set, e.elt)) edges = expect);
  checkb "golden edges are insertions" true
    (Array.for_all (fun (e : Edge.t) -> e.sign = 1) edges);
  checkb "golden loads via load_auto" true
    (Array.map (fun (e : Edge.t) -> (e.set, e.elt))
       (Src.to_array (Src.load_auto golden_v1_path))
    = expect)

let suite =
  [
    Alcotest.test_case "chunks: no empty final chunk" `Quick test_chunks_never_empty;
    Alcotest.test_case "chunks: resume grid via start" `Quick test_chunks_start;
    Alcotest.test_case "partition: ordered, balanced, lossless" `Quick test_partition;
    Alcotest.test_case "edge make/compare" `Quick test_edge_make_and_compare;
    Alcotest.test_case "edge net: counts and first-occurrence order" `Quick test_edge_net;
    Alcotest.test_case "system dedup" `Quick test_system_dedup;
    Alcotest.test_case "system validation" `Quick test_system_validation;
    Alcotest.test_case "coverage" `Quick test_coverage;
    Alcotest.test_case "covered indicator" `Quick test_covered_indicator;
    Alcotest.test_case "frequencies" `Quick test_frequencies;
    Alcotest.test_case "common elements" `Quick test_common_elements;
    Alcotest.test_case "total size / edges" `Quick test_total_size_and_edges;
    Alcotest.test_case "of_edges roundtrip" `Quick test_of_edges_roundtrip;
    Alcotest.test_case "edge stream is a permutation" `Quick test_edge_stream_is_permutation;
    Alcotest.test_case "edge stream seed sensitivity" `Quick test_edge_stream_seed_changes_order;
    Alcotest.test_case "stream source iter/fold" `Quick test_stream_source_iter_fold;
    Alcotest.test_case "stream source save/load" `Quick test_stream_source_save_load;
    Alcotest.test_case "stream source load (messy whitespace)" `Quick
      test_stream_source_load_messy;
    Alcotest.test_case "stream source load (malformed)" `Quick
      test_stream_source_load_malformed;
    Alcotest.test_case "stream source chunks" `Quick test_stream_source_chunks;
    Alcotest.test_case "stream source max_ids" `Quick test_stream_source_max_ids;
    Alcotest.test_case "stats histogram" `Quick test_stats_histogram;
    Alcotest.test_case "stats ucmn / max freq" `Quick test_stats_ucmn;
    Alcotest.test_case "stats contribution profile" `Quick test_stats_contribution_profile;
    Alcotest.test_case "edge file round-trip" `Quick test_edge_file_roundtrip;
    Alcotest.test_case "edge file empty stream" `Quick test_edge_file_empty;
    Alcotest.test_case "edge file rejects truncation" `Quick test_edge_file_truncated;
    Alcotest.test_case "edge file rejects bad magic" `Quick test_edge_file_bad_magic;
    Alcotest.test_case "edge file rejects future version" `Quick
      test_edge_file_bad_version;
    Alcotest.test_case "edge file rejects checksum mismatch" `Quick
      test_edge_file_checksum_mismatch;
    Alcotest.test_case "edge file write bounds" `Quick test_edge_file_write_bounds;
    Alcotest.test_case "edge file v2 signed round-trip" `Quick test_edge_file_v2_roundtrip;
    Alcotest.test_case "insertion-only writes stay byte-identical v1" `Quick
      test_edge_file_insertion_only_stays_v1;
    Alcotest.test_case "edge file v2 rejects bad sign byte" `Quick
      test_edge_file_v2_bad_sign_byte;
    Alcotest.test_case "edge file rejects version/magic mismatch" `Quick
      test_edge_file_version_magic_mismatch;
    Alcotest.test_case "golden v1 edge file still loads" `Quick
      test_edge_file_golden_v1_loads;
  ]
