(* Mkc_obs.Telemetry — the durable MKCTEL1 log behind [--telemetry] —
   and Mkc_obs.Top, the pure renderer over replayed series.

   Claims checked here:
   1. Writer → read round-trips tracks, samples, and events exactly.
   2. Corruption handling mirrors Edge_file: every rejection is a
      named error (Bad_magic, Bad_version, Truncated, Malformed,
      Checksum_mismatch) — except a torn FINAL frame, which yields
      the intact prefix plus [torn = Some _], because a telemetry log
      is most valuable for runs that died mid-append.
   3. summarize/quantile follow the snapshot convention: rank
      ceil(q·n) over the ascending sort, so 1..100 gives p50=50 and
      p99=99.
   4. replay rebuilds a Series whose per-track summary matches the
      log, and Recorder (probe evaluation on the Observed cadence)
      feeds both sides identically.
   5. Top.render is total: it renders the standard track families,
      degrades to generic lines for unknown tracks, and never fails
      on an empty series. *)

module T = Mkc_obs.Telemetry
module Series = Mkc_obs.Series
module Top = Mkc_obs.Top

let temp_log () = Filename.temp_file "mkc_telemetry" ".mkctel"

let write_sample_log ?(events = []) path tracks rows =
  match T.Writer.create path ~tracks with
  | Error e -> Alcotest.failf "Writer.create: %s" (T.error_to_string e)
  | Ok w ->
      List.iter (fun (ns, edges, values) -> T.Writer.sample w ~at_ns:ns ~at_edges:edges values) rows;
      List.iter
        (fun (ns, edges, name, value) -> T.Writer.event w ~at_ns:ns ~at_edges:edges ~name ~value)
        events;
      T.Writer.close w

let read_ok path =
  match T.read path with
  | Ok log -> log
  | Error e -> Alcotest.failf "read %s: %s" path (T.error_to_string e)

let read_err path =
  match T.read path with
  | Ok _ -> Alcotest.failf "read %s unexpectedly succeeded" path
  | Error e -> e

let truncate_to path keep =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let keep = if keep < 0 then len + keep else keep in
  let data = really_input_string ic keep in
  close_in_noerr ic;
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let patch_byte path ~pos f =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = Bytes.of_string (really_input_string ic len) in
  close_in_noerr ic;
  let pos = if pos < 0 then len + pos else pos in
  Bytes.set data pos (f (Bytes.get data pos));
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc

let flip c = Char.chr (Char.code c lxor 0xFF)

let rows3 = [ (1000, 64, [| 1; 10 |]); (2000, 128, [| 5; 8 |]); (3000, 192, [| 3; 12 |]) ]

let test_round_trip () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_sample_log path [| "x"; "y" |] rows3
        ~events:[ (2500, 150, "health.space.violations", 1); (3500, 192, "ckpt.saves", 2) ];
      let log = read_ok path in
      Alcotest.(check (array string)) "tracks" [| "x"; "y" |] log.T.tracks;
      Alcotest.(check (option string)) "no tear" None (Option.map T.error_to_string log.T.torn);
      Alcotest.(check int) "samples" 3 (List.length log.T.samples);
      let s2 = List.nth log.T.samples 1 in
      Alcotest.(check int) "sample ns" 2000 s2.T.s_ns;
      Alcotest.(check int) "sample edges" 128 s2.T.s_edges;
      Alcotest.(check (array int)) "sample values" [| 5; 8 |] s2.T.values;
      Alcotest.(check int) "events" 2 (List.length log.T.events);
      let e1 = List.hd log.T.events in
      Alcotest.(check string) "event name" "health.space.violations" e1.T.e_name;
      Alcotest.(check int) "event value" 1 e1.T.e_value;
      Alcotest.(check int) "event edges" 150 e1.T.e_edges)

let test_rejection_matrix () =
  let with_log mutate k =
    let path = temp_log () in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        write_sample_log path [| "x"; "y" |] rows3 ~events:[ (3500, 192, "ev", 1) ];
        mutate path;
        k path)
  in
  (* magic *)
  with_log (fun p -> patch_byte p ~pos:0 flip) (fun p ->
      match read_err p with
      | T.Bad_magic _ -> ()
      | e -> Alcotest.failf "wanted Bad_magic, got %s" (T.error_to_string e));
  (* version *)
  with_log (fun p -> patch_byte p ~pos:8 flip) (fun p ->
      match read_err p with
      | T.Bad_version _ -> ()
      | e -> Alcotest.failf "wanted Bad_version, got %s" (T.error_to_string e));
  (* sub-header file: a hard error, not a tear *)
  with_log (fun p -> truncate_to p 10) (fun p ->
      match read_err p with
      | T.Truncated _ -> ()
      | e -> Alcotest.failf "wanted Truncated, got %s" (T.error_to_string e));
  (* checksum flip inside a frame payload *)
  with_log (fun p -> patch_byte p ~pos:(-1) flip) (fun p ->
      match read_err p with
      | T.Checksum_mismatch _ -> ()
      | e -> Alcotest.failf "wanted Checksum_mismatch, got %s" (T.error_to_string e));
  (* directory payload corruption with frames after it *)
  with_log (fun p -> patch_byte p ~pos:40 flip) (fun p ->
      match read_err p with
      | T.Checksum_mismatch _ | T.Malformed _ -> ()
      | e -> Alcotest.failf "wanted Checksum_mismatch/Malformed, got %s" (T.error_to_string e));
  (* header-only log: no directory frame at all *)
  with_log (fun p -> truncate_to p 16) (fun p ->
      match read_err p with
      | T.Malformed _ -> ()
      | e -> Alcotest.failf "wanted Malformed, got %s" (T.error_to_string e))

(* A directory frame whose checksum is valid but whose track count
   (2^40) no 16-byte payload can hold: the reader must name the lie
   before sizing the track table from it. *)
let test_crafted_track_count () =
  let path = temp_log () in
  let payload = Bytes.create 16 in
  Bytes.set_int64_le payload 0 1L (* directory frame kind *);
  Bytes.set_int64_le payload 8 (Int64.shift_left 1L 40);
  let oc = open_out_bin path in
  T.Framed.write_header oc ~magic:"MKCTEL1\n" ~version:1;
  T.Framed.write_frame oc payload;
  close_out oc;
  (match read_err path with
  | T.Malformed _ -> ()
  | e -> Alcotest.failf "wanted Malformed, got %s" (T.error_to_string e));
  Sys.remove path

let test_torn_tail () =
  (* Cut the final frame short at several depths: mid-payload and
     mid-header.  Every cut keeps the intact prefix and names the
     tear; nothing before the tear is lost. *)
  List.iter
    (fun cut ->
      let path = temp_log () in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          write_sample_log path [| "x"; "y" |] rows3;
          truncate_to path (-cut);
          let log = read_ok path in
          (match log.T.torn with
          | Some (T.Truncated _) -> ()
          | Some e -> Alcotest.failf "cut %d: tear is %s, wanted Truncated" cut (T.error_to_string e)
          | None -> Alcotest.failf "cut %d: no tear reported" cut);
          Alcotest.(check int)
            (Printf.sprintf "cut %d keeps intact prefix" cut)
            2 (List.length log.T.samples);
          let s = List.nth log.T.samples 1 in
          Alcotest.(check (array int)) "prefix values intact" [| 5; 8 |] s.T.values))
    (* sample frames are 16 + 24 + 2·8 = 56 bytes: cut 7 tears the
       payload, cut 48 leaves 8 of the 16 header bytes *)
    [ 7; 48 ];
  (* an exactly-frame-aligned truncation is simply a shorter valid log *)
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_sample_log path [| "x"; "y" |] rows3;
      truncate_to path (-56);
      let log = read_ok path in
      Alcotest.(check bool) "aligned cut is not a tear" true (log.T.torn = None);
      Alcotest.(check int) "aligned cut drops one sample" 2 (List.length log.T.samples))

let test_writer_validation () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.check_raises "empty tracks" (Invalid_argument "Telemetry.Writer.create: no tracks")
        (fun () -> ignore (T.Writer.create path ~tracks:[||]));
      match T.Writer.create path ~tracks:[| "x"; "y" |] with
      | Error e -> Alcotest.failf "create: %s" (T.error_to_string e)
      | Ok w ->
          Fun.protect
            ~finally:(fun () -> T.Writer.close w)
            (fun () ->
              Alcotest.check_raises "arity mismatch"
                (Invalid_argument
                   "Telemetry.Writer.sample: value count does not match the directory") (fun () ->
                  T.Writer.sample w ~at_ns:1 ~at_edges:1 [| 1; 2; 3 |])))

let test_summarize_quantiles () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* track "up" runs 1..100 in order; track "down" runs 100..1 —
         same sorted distribution, different last. *)
      let rows =
        List.init 100 (fun i -> (1000 + i, 64 * (i + 1), [| i + 1; 100 - i |]))
      in
      write_sample_log path [| "up"; "down" |] rows;
      let log = read_ok path in
      match T.summarize log with
      | [ up; down ] ->
          Alcotest.(check string) "name" "up" up.T.t_name;
          Alcotest.(check int) "count" 100 up.T.t_count;
          Alcotest.(check int) "min" 1 up.T.t_min;
          Alcotest.(check int) "max" 100 up.T.t_max;
          Alcotest.(check int) "last up" 100 up.T.t_last;
          Alcotest.(check int) "p50" 50 up.T.t_p50;
          Alcotest.(check int) "p99" 99 up.T.t_p99;
          Alcotest.(check int) "last down" 1 down.T.t_last;
          Alcotest.(check int) "p50 down" 50 down.T.t_p50
      | l -> Alcotest.failf "summarize returned %d tracks" (List.length l));
  Alcotest.(check int) "quantile empty" 0 (T.quantile [||] 0.5);
  Alcotest.(check int) "quantile singleton" 7 (T.quantile [| 7 |] 0.99);
  Alcotest.(check int) "quantile p50 of 4" 2 (T.quantile [| 1; 2; 3; 4 |] 0.5)

let test_replay_matches_summary () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_sample_log path [| "x"; "y" |] rows3;
      let log = read_ok path in
      let s = T.replay log in
      Alcotest.(check int) "replay length" 3 (Series.length s);
      Alcotest.(check int) "replay total" 3 (Series.total s);
      List.iter
        (fun sum ->
          let t = Series.index_exn s sum.T.t_name in
          Alcotest.(check int) ("min " ^ sum.T.t_name) sum.T.t_min (Series.min_of s t);
          Alcotest.(check int) ("max " ^ sum.T.t_name) sum.T.t_max (Series.max_of s t);
          Alcotest.(check int) ("last " ^ sum.T.t_name) sum.T.t_last (Series.last s t))
        (T.summarize log);
      Alcotest.(check int) "replay coordinates" 192 (Series.row_edges s 2);
      (* a bounded-capacity replay still carries full-history summaries *)
      let s1 = T.replay ~capacity:1 log in
      Alcotest.(check int) "capped replay length" 1 (Series.length s1);
      Alcotest.(check int) "capped replay min" 1 (Series.min_of s1 0))

let test_recorder () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let calls = ref 0 in
      let probes : T.Recorder.probe array =
        [|
          ("pipeline.edges", fun ~at_ns:_ ~at_edges -> at_edges);
          ( "counter",
            fun ~at_ns:_ ~at_edges:_ ->
              incr calls;
              !calls * 10 );
        |]
      in
      (match T.Writer.create path ~tracks:[| "wrong" |] with
      | Error e -> Alcotest.failf "create: %s" (T.error_to_string e)
      | Ok w ->
          Alcotest.check_raises "directory mismatch"
            (Invalid_argument "Telemetry.Recorder.create: writer directory does not match the probes")
            (fun () -> ignore (T.Recorder.create ~writer:w ~capacity:8 probes));
          T.Writer.close w);
      match T.Writer.create path ~tracks:(Array.map fst probes) with
      | Error e -> Alcotest.failf "create: %s" (T.error_to_string e)
      | Ok w ->
          let r = T.Recorder.create ~writer:w ~capacity:8 probes in
          T.Recorder.sample r ~at_edges:100;
          T.Recorder.sample r ~at_edges:200;
          T.Recorder.event r ~at_edges:150 ~name:"health.x.violations" ~value:1;
          T.Recorder.close r;
          let log = read_ok path in
          Alcotest.(check int) "recorder samples" 2 (List.length log.T.samples);
          Alcotest.(check int) "recorder events" 1 (List.length log.T.events);
          let s = T.Recorder.series r in
          let last = List.nth log.T.samples 1 in
          Alcotest.(check (array int))
            "log row = series row" [| 200; 20 |] last.T.values;
          Alcotest.(check int) "series last edges" 200 (Series.row_edges s 1);
          Alcotest.(check int) "series last counter" 20 (Series.last s 1))

(* ---------- Top rendering ---------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains what needle hay =
  if not (contains ~needle hay) then Alcotest.failf "%s: %S not found in:\n%s" what needle hay

let test_top_pp_count () =
  Alcotest.(check string) "small untouched" "999" (Top.pp_count 999);
  Alcotest.(check string) "thousands comma" "1,234" (Top.pp_count 1234);
  Alcotest.(check string) "tens of thousands" "12.3k" (Top.pp_count 12_345);
  Alcotest.(check string) "millions" "1.23M" (Top.pp_count 1_234_567);
  Alcotest.(check string) "billions" "2.50G" (Top.pp_count 2_500_000_000);
  Alcotest.(check string) "negative" "-1,234" (Top.pp_count (-1234));
  Alcotest.(check string) "zero" "0" (Top.pp_count 0)

let test_top_sparkline_bar () =
  let s = Series.create ~capacity:8 ~tracks:[| "v" |] in
  List.iter
    (fun v ->
      Series.stage s 0 v;
      Series.commit s ~at_ns:v ~at_edges:v)
    [ 0; 7; 3 ];
  let spark = Top.sparkline s 0 in
  (* three levels: min → lowest glyph, max → highest, newest right *)
  Alcotest.(check string) "sparkline shape" "\u{2581}\u{2588}\u{2584}" spark;
  let wide = Top.sparkline ~width:2 s 0 in
  Alcotest.(check string) "width clips to newest" "\u{2588}\u{2581}" wide;
  let empty = Series.create ~capacity:2 ~tracks:[| "v" |] in
  Alcotest.(check string) "empty sparkline" "" (Top.sparkline empty 0);
  Alcotest.(check string) "bar half" "[#####-----]" (Top.bar ~width:10 ~num:5 ~den:10);
  Alcotest.(check string) "bar overfull clamps" "[##########]" (Top.bar ~width:10 ~num:15 ~den:10);
  Alcotest.(check string) "bar zero den" "" (Top.bar ~width:10 ~num:5 ~den:0)

let test_top_render () =
  let empty = Series.create ~capacity:4 ~tracks:[| "space.words" |] in
  check_contains "empty view" "waiting for the first sample" (Top.render empty);
  let tracks =
    [| "pipeline.edges"; "pipeline.edges_per_sec"; "space.words"; "space.oracle.l0"; "other.track" |]
  in
  let s = Series.create ~capacity:8 ~tracks in
  List.iteri
    (fun i (edges, rate, words, l0, other) ->
      Series.stage s 0 edges;
      Series.stage s 1 rate;
      Series.stage s 2 words;
      Series.stage s 3 l0;
      Series.stage s 4 other;
      Series.commit s ~at_ns:(1_000_000_000 * (i + 1)) ~at_edges:edges)
    [ (1000, 500, 2048, 100, 1); (2000, 600, 4096, 120, 9) ];
  let view = Top.render ~budget_words:8192 ~violations:[ ("space", 0); ("stall", 2) ] s in
  check_contains "header edges" "2,000 edges" view;
  check_contains "sample count" "2 samples" view;
  check_contains "throughput line" "throughput" view;
  check_contains "budget bar" "/ budget 8,192" view;
  check_contains "space component" "oracle.l0" view;
  check_contains "unknown family fallback" "other.track" view;
  check_contains "violations" "stall \xc3\x972" view;
  let armed = Top.render ~violations:[ ("space", 0) ] s in
  check_contains "armed but quiet" "OK (space armed)" armed;
  let no_rules = Top.render s in
  check_contains "no rules" "health      OK" no_rules

let suite =
  [
    Alcotest.test_case "writer/reader round trip" `Quick test_round_trip;
    Alcotest.test_case "rejection matrix" `Quick test_rejection_matrix;
    Alcotest.test_case "torn tail keeps prefix" `Quick test_torn_tail;
    Alcotest.test_case "crafted directory track count" `Quick test_crafted_track_count;
    Alcotest.test_case "writer validation" `Quick test_writer_validation;
    Alcotest.test_case "summarize quantile convention" `Quick test_summarize_quantiles;
    Alcotest.test_case "replay matches summary" `Quick test_replay_matches_summary;
    Alcotest.test_case "recorder round trip" `Quick test_recorder;
    Alcotest.test_case "top pp_count" `Quick test_top_pp_count;
    Alcotest.test_case "top sparkline and bar" `Quick test_top_sparkline_bar;
    Alcotest.test_case "top render families" `Quick test_top_render;
  ]
