(* Signed integers in two representations. Word-sized values are immediate
   native ints; larger ones are sign-magnitude bignums over 15-bit limbs
   (little-endian int arrays).

   Base 2^15 is chosen so that limb products (< 2^30) plus carries stay far
   below the 62-bit overflow boundary, which lets the Knuth algorithm-D
   quotient estimation below work with plain [int] arithmetic.

   Canonical form: a value is [Small] if and only if its magnitude is below
   2^60, i.e. fits in at most four limbs. Every limb-path result goes back
   through [of_mag], so structural equality is value equality and a
   [Small] operand never meets a [Big] of the same magnitude. *)

let base_bits = 15
let base = 1 lsl base_bits
let mask = base - 1

let small_limbs = 4
let small_bound = 1 lsl (small_limbs * base_bits)

type t = Small of int | Big of { sign : int; mag : int array }
(* Invariants of [Big]: [sign] is -1 or 1; the most significant limb
   [mag.(len-1)] is non-zero; [len > small_limbs]. *)

let zero = Small 0
let one = Small 1
let minus_one = Small (-1)

let fits n = n > -small_bound && n < small_bound

(* Limbs of a non-negative native int, or of [min_int]'s magnitude 2^62,
   whose two's-complement bit pattern logical shifts read directly. *)
let mag_of_nat n =
  let rec count k n = if n = 0 then k else count (k + 1) (n lsr base_bits) in
  let out = Array.make (count 0 n) 0 in
  let n = ref n in
  for i = 0 to Array.length out - 1 do
    out.(i) <- !n land mask;
    n := !n lsr base_bits
  done;
  out

let strip mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let hi = top (n - 1) in
  if hi = n - 1 then mag else Array.sub mag 0 (hi + 1)

(* The canonical value of a sign and a raw magnitude. *)
let of_mag sign mag =
  let mag = strip mag in
  let n = Array.length mag in
  if n > small_limbs then Big { sign; mag }
  else begin
    let v = ref 0 in
    for i = n - 1 downto 0 do v := (!v lsl base_bits) lor mag.(i) done;
    Small (sign * !v)
  end

let of_int n =
  if fits n then Small n
  else if n > 0 then Big { sign = 1; mag = mag_of_nat n }
  else Big { sign = -1; mag = mag_of_nat (if n = min_int then n else -n) }

(* Sign and limbs of any value, for the limb path. *)
let view = function
  | Small n -> (Stdlib.compare n 0, mag_of_nat (Stdlib.abs n))
  | Big { sign; mag } -> (sign, mag)

let is_zero = function Small n -> n = 0 | Big _ -> false
let is_one = function Small n -> n = 1 | Big _ -> false
let sign = function Small n -> Stdlib.compare n 0 | Big { sign; _ } -> sign

let neg = function
  | Small n -> Small (-n)
  | Big { sign; mag } -> Big { sign = -sign; mag }

let abs a = if sign a < 0 then neg a else a

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

(* A [Big] magnitude exceeds every [Small] one, so mixed pairs are decided
   by the [Big] side's sign. *)
let compare a b =
  match (a, b) with
  | Small x, Small y -> Int.compare x y
  | Small _, Big { sign; _ } -> -sign
  | Big { sign; _ }, Small _ -> sign
  | Big a, Big b ->
    if a.sign <> b.sign then Int.compare a.sign b.sign else a.sign * cmp_mag a.mag b.mag

let equal a b =
  match (a, b) with
  | Small x, Small y -> x = y
  | Big _, Big _ -> compare a b = 0
  | _ -> false

(* The hash is a fold over the limbs, least significant first; [Small]
   values run the same fold on their limbs without materialising them. *)
let hash = function
  | Small n ->
    let rec go acc m = if m = 0 then acc else go ((acc * 31) + (m land mask)) (m lsr base_bits) in
    go (Stdlib.compare n 0 + 2) (Stdlib.abs n) land max_int
  | Big { sign; mag } -> Array.fold_left (fun acc limb -> (acc * 31) + limb) (sign + 2) mag land max_int

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lmax = if la > lb then la else lb in
  let out = Array.make (lmax + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lmax - 1 do
    let da = if i < la then a.(i) else 0 and db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    out.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  out.(lmax) <- !carry;
  out

(* Requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let d = a.(i) - db - !borrow in
    if d < 0 then begin out.(i) <- d + base; borrow := 1 end
    else begin out.(i) <- d; borrow := 0 end
  done;
  out

let add_limbs a b =
  if is_zero a then b
  else if is_zero b then a
  else begin
    let sa, ma = view a and sb, mb = view b in
    if sa = sb then of_mag sa (add_mag ma mb)
    else begin
      let c = cmp_mag ma mb in
      if c = 0 then zero
      else if c > 0 then of_mag sa (sub_mag ma mb)
      else of_mag sb (sub_mag mb ma)
    end
  end

(* Two [Small] summands are below 2^60 each, so their native sum cannot
   overflow; [of_int] moves a sum of 2^60 or more to limbs. *)
let add a b = match (a, b) with Small x, Small y -> of_int (x + y) | _ -> add_limbs a b
let sub a b = match (a, b) with Small x, Small y -> of_int (x - y) | _ -> add_limbs a (neg b)

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let carry = ref 0 in
    let ai = a.(i) in
    if ai <> 0 then begin
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- v land mask;
        carry := v lsr base_bits
      done;
      out.(i + lb) <- out.(i + lb) + !carry
    end
  done;
  out

let half_bound = 1 lsl (small_limbs * base_bits / 2)

(* Factors below 2^30 multiply natively into a [Small] product. *)
let mul a b =
  match (a, b) with
  | Small x, Small y when x > -half_bound && x < half_bound && y > -half_bound && y < half_bound ->
    Small (x * y)
  | _ ->
    if is_zero a || is_zero b then zero
    else begin
      let sa, ma = view a and sb, mb = view b in
      of_mag (sa * sb) (mul_mag ma mb)
    end

(* Divide magnitude by a single limb; returns (quotient, remainder limb). *)
let divmod_small_mag a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

(* Knuth algorithm D on magnitudes; returns (quotient, remainder).
   Preconditions: [Array.length b >= 2], [cmp_mag a b >= 0]. *)
let divmod_knuth a b =
  let shift =
    let top = b.(Array.length b - 1) in
    let rec go s t = if t >= base / 2 then s else go (s + 1) (t * 2) in
    go 0 top
  in
  let shl m s =
    if s = 0 then Array.copy m
    else begin
      let n = Array.length m in
      let out = Array.make (n + 1) 0 in
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let v = (m.(i) lsl s) lor !carry in
        out.(i) <- v land mask;
        carry := v lsr base_bits
      done;
      out.(n) <- !carry;
      out
    end
  in
  let shr m s =
    if s = 0 then Array.copy m
    else begin
      let n = Array.length m in
      let out = Array.make n 0 in
      let carry = ref 0 in
      for i = n - 1 downto 0 do
        let v = (!carry lsl base_bits) lor m.(i) in
        out.(i) <- v lsr s;
        carry := m.(i) land ((1 lsl s) - 1)
      done;
      out
    end
  in
  let u0 = shl a shift and v = shl b shift in
  let v =
    (* drop a possible top zero introduced by shl *)
    let n = Array.length v in
    if v.(n - 1) = 0 then Array.sub v 0 (n - 1) else v
  in
  let n = Array.length v in
  let m = Array.length u0 - n in
  let u = Array.append u0 [| 0 |] in
  let m = if m < 0 then 0 else m in
  let q = Array.make (m + 1) 0 in
  let vtop = v.(n - 1) in
  let vsec = if n >= 2 then v.(n - 2) else 0 in
  for j = m downto 0 do
    let num = (((u.(j + n) lsl base_bits) lor u.(j + n - 1)) lsl 0) in
    let qhat = ref (num / vtop) in
    let rhat = ref (num mod vtop) in
    if !qhat >= base then begin
      rhat := !rhat + (vtop * (!qhat - (base - 1)));
      qhat := base - 1
    end;
    while !rhat < base && !qhat * vsec > ((!rhat lsl base_bits) lor (if j + n - 2 >= 0 then u.(j + n - 2) else 0)) do
      decr qhat;
      rhat := !rhat + vtop
    done;
    (* multiply-subtract *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr base_bits;
      let d = u.(i + j) - (p land mask) - !borrow in
      if d < 0 then begin u.(i + j) <- d + base; borrow := 1 end
      else begin u.(i + j) <- d; borrow := 0 end
    done;
    let d = u.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add back *)
      u.(j + n) <- d + base;
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let s = u.(i + j) + v.(i) + !carry in
        u.(i + j) <- s land mask;
        carry := s lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry) land mask
    end
    else u.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = shr (Array.sub u 0 n) shift in
  (q, r)

(* Native [/] and [mod] truncate toward zero, which is this module's
   contract too. A [Small] dividend is below any [Big] divisor. *)
let divmod a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y -> (Small (x / y), Small (x mod y))
  | Small _, Big _ -> (zero, a)
  | Big _, _ ->
    let sa, ma = view a and sb, mb = view b in
    if cmp_mag ma mb < 0 then (zero, a)
    else begin
      let qmag, rmag =
        if Array.length mb = 1 then begin
          let q, r = divmod_small_mag ma mb.(0) in
          (q, [| r |])
        end
        else divmod_knuth ma mb
      in
      (of_mag (sa * sb) qmag, of_mag sa rmag)
    end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* Euclid through the limbs until both sides are [Small], then natively. *)
let rec gcd a b =
  match (a, b) with
  | Small x, Small y -> Small (gcd_int (Stdlib.abs x) (Stdlib.abs y))
  | _ -> if is_zero b then abs a else gcd b (rem a b)

let pow b n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else begin
      let acc = if n land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (n lsr 1)
    end
  in
  go one b n

let numbits =
  let rec bits k m = if m = 0 then k else bits (k + 1) (m lsr 1) in
  function
  | Small n -> bits 0 (Stdlib.abs n)
  | Big { mag; _ } ->
    let n = Array.length mag in
    bits ((n - 1) * base_bits) mag.(n - 1)

let shift_right a s =
  if s < 0 then invalid_arg "Bigint.shift_right: negative shift";
  match a with
  | Small n ->
    let m = if s >= small_limbs * base_bits then 0 else Stdlib.abs n lsr s in
    Small (if n < 0 then -m else m)
  | Big { sign; mag } ->
    let limbs = s / base_bits and bits = s mod base_bits in
    let len = Array.length mag in
    if limbs >= len then zero
    else
      of_mag sign
        (Array.init (len - limbs) (fun i ->
             let hi = if i + limbs + 1 < len then (mag.(i + limbs + 1) lsl (base_bits - bits)) land mask else 0 in
             (mag.(i + limbs) lsr bits) lor hi))

let to_int_opt = function
  | Small n -> Some n
  | Big { sign; mag } ->
    (* Accumulate negatively so that [min_int] (whose magnitude exceeds
       [max_int]) is still representable. *)
    let floor_limit = min_int asr base_bits in
    let rec go acc i =
      if i < 0 then Some acc
      else if acc < floor_limit || (acc = floor_limit && mag.(i) > 0) then None
      else go ((acc lsl base_bits) - mag.(i)) (i - 1)
    in
    (match go 0 (Array.length mag - 1) with
     | None -> None
     | Some m -> if sign < 0 then Some m else if m = min_int then None else Some (-m))

(* For a [Small] value the limb fold below is exact up to its last
   addition, so it rounds once, exactly as [float_of_int] does. *)
let to_float = function
  | Small n -> float_of_int n
  | Big { sign; mag } ->
    let v = Array.fold_right (fun limb acc -> (acc *. float_of_int base) +. float_of_int limb) mag 0. in
    if sign < 0 then -.v else v

let to_string = function
  | Small n -> string_of_int n
  | Big { sign; mag } ->
    let chunks = ref [] in
    let m = ref mag in
    while Array.length !m > 0 do
      let q, r = divmod_small_mag !m 10000 in
      chunks := r :: !chunks;
      m := strip q
    done;
    let buf = Buffer.create 16 in
    if sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%04d" c)) rest);
    Buffer.contents buf

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty string";
  let is_neg, start =
    if s.[0] = '-' then (true, 1) else if s.[0] = '+' then (false, 1) else (false, 0)
  in
  if start >= n then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let i = ref start in
  while !i < n do
    let stop = min n (!i + 4) in
    let chunk = String.sub s !i (stop - !i) in
    String.iter (fun c -> if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit") chunk;
    let scale = pow (of_int 10) (stop - !i) in
    acc := add (mul !acc scale) (of_int (int_of_string chunk));
    i := stop
  done;
  if is_neg then neg !acc else !acc

let pp fmt a = Format.pp_print_string fmt (to_string a)
