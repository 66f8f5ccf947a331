type t = { n : int; m : int; sets : int array array }

let dedup_sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  let len = Array.length a in
  if len = 0 then a
  else begin
    let out = ref [ a.(0) ] and count = ref 1 in
    for i = 1 to len - 1 do
      if a.(i) <> a.(i - 1) then begin
        out := a.(i) :: !out;
        incr count
      end
    done;
    let res = Array.make !count 0 in
    List.iteri (fun i x -> res.(!count - 1 - i) <- x) !out;
    res
  end

let create ~n ~m ~sets =
  if n < 0 || m < 0 then invalid_arg "Set_system.create: negative dimensions";
  if Array.length sets <> m then invalid_arg "Set_system.create: |sets| <> m";
  let sets =
    Array.map
      (fun s ->
        Array.iter
          (fun e -> if e < 0 || e >= n then invalid_arg "Set_system.create: element out of range")
          s;
        dedup_sorted s)
      sets
  in
  { n; m; sets }

(* Turnstile-aware: a pair belongs to its set iff its signed count is
   positive, so a retracted pair is not covered. *)
let of_edges ~n ~m edges =
  let buckets = Array.make m [] in
  List.iter
    (fun (e : Edge.t) ->
      if e.set < 0 || e.set >= m then invalid_arg "Set_system.of_edges: set out of range")
    edges;
  List.iter
    (fun ((e : Edge.t), _) -> buckets.(e.set) <- e.elt :: buckets.(e.set))
    (Edge.net (Array.of_list edges));
  create ~n ~m ~sets:(Array.map Array.of_list buckets)

let n t = t.n
let m t = t.m
let set t i = t.sets.(i)
let set_size t i = Array.length t.sets.(i)
let total_size t = Array.fold_left (fun acc s -> acc + Array.length s) 0 t.sets

let covered t sel =
  let mark = Array.make t.n false in
  List.iter
    (fun i ->
      if i < 0 || i >= t.m then invalid_arg "Set_system.covered: set id out of range";
      Array.iter (fun e -> mark.(e) <- true) t.sets.(i))
    sel;
  mark

let coverage t sel =
  let mark = covered t sel in
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mark

let frequencies t =
  let freq = Array.make t.n 0 in
  Array.iter (fun s -> Array.iter (fun e -> freq.(e) <- freq.(e) + 1) s) t.sets;
  freq

let common_elements t ~threshold =
  let freq = frequencies t in
  Array.fold_left (fun acc f -> if f >= threshold then acc + 1 else acc) 0 freq

let edges t =
  let out = Array.make (total_size t) { Edge.set = 0; elt = 0; sign = 1 } in
  let pos = ref 0 in
  Array.iteri
    (fun i s ->
      Array.iter
        (fun e ->
          out.(!pos) <- { Edge.set = i; elt = e; sign = 1 };
          incr pos)
        s)
    t.sets;
  out

let edge_stream ?seed t =
  let es = edges t in
  (match seed with
  | None -> ()
  | Some s ->
      let rng = Mkc_hashing.Splitmix.create s in
      for i = Array.length es - 1 downto 1 do
        let j = Mkc_hashing.Splitmix.below rng (i + 1) in
        let tmp = es.(i) in
        es.(i) <- es.(j);
        es.(j) <- tmp
      done);
  es

let pp_summary ppf t =
  Format.fprintf ppf "set system: n=%d m=%d pairs=%d" t.n t.m (total_size t)
