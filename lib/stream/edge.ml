type t = { set : int; elt : int; sign : int }

let check_ids set elt =
  if set < 0 || elt < 0 then invalid_arg "Edge.make: ids must be non-negative"

let make ~set ~elt =
  check_ids set elt;
  { set; elt; sign = 1 }

let signed ~sign ~set ~elt =
  check_ids set elt;
  if sign <> 1 && sign <> -1 then invalid_arg "Edge.signed: sign must be +1 or -1";
  { set; elt; sign }

(* Sorting stream positions by pair (stably, so each run starts at its
   pair's first occurrence) nets every pair without a hash table; the
   net counts are then read back in stream order, so first-occurrence
   order needs no second sort. *)
let net edges =
  let n = Array.length edges in
  let by_pair i j =
    let a = edges.(i) and b = edges.(j) in
    let c = Int.compare a.set b.set in
    if c <> 0 then c else Int.compare a.elt b.elt
  in
  let pos = Array.init n Fun.id in
  Array.stable_sort by_pair pos;
  let count_at = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    let first = pos.(!i) and c = ref 0 in
    while !i < n && by_pair first pos.(!i) = 0 do
      c := !c + edges.(pos.(!i)).sign;
      incr i
    done;
    count_at.(first) <- !c
  done;
  let acc = ref [] in
  for p = n - 1 downto 0 do
    if count_at.(p) > 0 then begin
      let e = edges.(p) in
      acc := ((if e.sign = 1 then e else { e with sign = 1 }), count_at.(p)) :: !acc
    end
  done;
  !acc

let compare a b =
  let c = Int.compare a.set b.set in
  if c <> 0 then c
  else
    let c = Int.compare a.elt b.elt in
    if c <> 0 then c else Int.compare a.sign b.sign

let equal a b = compare a b = 0

let pp ppf { set; elt; sign } =
  if sign >= 0 then Format.fprintf ppf "(S%d, e%d)" set elt
  else Format.fprintf ppf "(S%d, e%d, -)" set elt
