(* Unit and property tests for Tpan_mathkit.Bigint. *)

module B = Tpan_mathkit.Bigint
module Q = Tpan_mathkit.Q

let b = Alcotest.testable B.pp B.equal

let check_b = Alcotest.check b

let test_of_int_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check (option int)) (string_of_int n) (Some n) (B.to_int_opt (B.of_int n)))
    [ 0; 1; -1; 42; -42; 32767; 32768; -32768; 1 lsl 40; -(1 lsl 40); max_int; min_int;
      (1 lsl 60) - 1; 1 - (1 lsl 60); 1 lsl 60; -(1 lsl 60); (1 lsl 60) + 1; -(1 lsl 60) - 1 ]

let test_to_string () =
  Alcotest.(check string) "zero" "0" (B.to_string B.zero);
  Alcotest.(check string) "one" "1" (B.to_string B.one);
  Alcotest.(check string) "neg" "-12345" (B.to_string (B.of_int (-12345)));
  Alcotest.(check string) "big" "1000000000000000000000" (B.to_string (B.of_string "1000000000000000000000"));
  Alcotest.(check string) "padded chunks" "10000000" (B.to_string (B.of_string "10000000"))

let test_of_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (B.to_string (B.of_string s)))
    [ "0"; "7"; "-7"; "123456789012345678901234567890"; "-999999999999999999999999" ]

let test_add_sub () =
  let a = B.of_string "123456789123456789123456789" in
  let c = B.of_string "987654321987654321" in
  check_b "a+c-c = a" a (B.sub (B.add a c) c);
  check_b "a-a = 0" B.zero (B.sub a a);
  check_b "a + (-a) = 0" B.zero (B.add a (B.neg a))

let test_mul () =
  let a = B.of_string "123456789" in
  let c = B.of_string "987654321" in
  check_b "known product" (B.of_string "121932631112635269") (B.mul a c);
  check_b "by zero" B.zero (B.mul a B.zero);
  check_b "sign" (B.neg (B.mul a c)) (B.mul (B.neg a) c)

let test_factorial () =
  let rec fact n = if n = 0 then B.one else B.mul (B.of_int n) (fact (n - 1)) in
  Alcotest.(check string) "50!"
    "30414093201713378043612608166064768844377641568960512000000000000"
    (B.to_string (fact 50))

let test_divmod () =
  let check_pair a bdiv =
    let q, r = B.divmod a bdiv in
    check_b "a = q*b + r" a (B.add (B.mul q bdiv) r);
    Alcotest.(check bool) "|r| < |b|" true (B.compare (B.abs r) (B.abs bdiv) < 0)
  in
  check_pair (B.of_string "123456789123456789") (B.of_string "987654321");
  check_pair (B.of_string "-123456789123456789") (B.of_string "987654321");
  check_pair (B.of_string "123456789123456789") (B.of_string "-987654321");
  check_pair (B.of_string "5") (B.of_string "7");
  check_pair (B.of_string "100000000000000000000000000000000") (B.of_string "3");
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (B.divmod B.one B.zero))

let test_divmod_knuth_addback () =
  (* Exercises the rare "add back" branch of algorithm D with a divisor whose
     top limb forces overestimated quotient digits. *)
  let a = B.sub (B.pow (B.of_int 2) 120) B.one in
  let d = B.add (B.pow (B.of_int 2) 60) B.one in
  let q, r = B.divmod a d in
  check_b "identity" a (B.add (B.mul q d) r)

let test_gcd () =
  check_b "gcd(12,18)" (B.of_int 6) (B.gcd (B.of_int 12) (B.of_int 18));
  check_b "gcd(0,5)" (B.of_int 5) (B.gcd B.zero (B.of_int 5));
  check_b "gcd(-12,18)" (B.of_int 6) (B.gcd (B.of_int (-12)) (B.of_int 18));
  check_b "gcd(0,0)" B.zero (B.gcd B.zero B.zero)

let test_pow () =
  check_b "2^62" (B.of_string "4611686018427387904") (B.pow (B.of_int 2) 62);
  check_b "x^0" B.one (B.pow (B.of_int 123) 0)

let test_compare () =
  Alcotest.(check bool) "neg < pos" true (B.compare (B.of_int (-5)) (B.of_int 3) < 0);
  Alcotest.(check bool) "longer wins" true
    (B.compare (B.of_string "100000000000000") (B.of_string "99999999999999") > 0);
  Alcotest.(check bool) "neg longer loses" true
    (B.compare (B.of_string "-100000000000000") (B.of_string "-99999999999999") < 0)

let test_to_float () =
  Alcotest.(check (float 1e-9)) "small" 42.0 (B.to_float (B.of_int 42));
  Alcotest.(check (float 1e6)) "2^70" (Float.pow 2. 70.) (B.to_float (B.pow (B.of_int 2) 70))

(* Values below 2^60 in magnitude are immediate ints, larger ones limbs;
   these cases sit on either side of that split and of the 2^30 bound for
   native products. *)

let p2 k = B.pow (B.of_int 2) k

let test_repr_boundaries () =
  let s60 = 1 lsl 60 in
  List.iter
    (fun n ->
      Alcotest.(check string) ("to_string " ^ string_of_int n) (string_of_int n) (B.to_string (B.of_int n));
      check_b ("of_string " ^ string_of_int n) (B.of_int n) (B.of_string (string_of_int n)))
    [ s60 - 1; -(s60 - 1); s60; -s60; s60 + 1; -(s60 + 1); max_int; min_int; max_int - 1; min_int + 1 ];
  Alcotest.(check (option int)) "2^63 does not fit" None (B.to_int_opt (p2 63));
  Alcotest.(check (option int)) "-2^63 - 1 does not fit" None
    (B.to_int_opt (B.sub (B.neg (p2 63)) B.one))

let test_repr_crossings () =
  let s60 = B.of_int (1 lsl 60) in
  (* products across the 2^30 operand bound *)
  let below = B.of_int ((1 lsl 30) - 1) and at = B.of_int (1 lsl 30) in
  check_b "(2^30-1)^2" (B.of_string "1152921502459363329") (B.mul below below);
  check_b "2^30 * 2^30" s60 (B.mul at at);
  check_b "2^30 * -(2^30)" (B.neg s60) (B.mul at (B.neg at));
  check_b "2^31 * 2^31" (B.of_string "4611686018427387904") (B.mul (B.of_int (1 lsl 31)) (B.of_int (1 lsl 31)));
  check_b "2^59 * 2^59" (p2 118) (B.mul (p2 59) (p2 59));
  (* sums crossing 2^60 in both directions *)
  let top = B.of_int ((1 lsl 60) - 1) in
  check_b "2^60-1 + 1" s60 (B.add top B.one);
  check_b "2^60 - 1" top (B.sub s60 B.one);
  check_b "-(2^60-1) - 1" (B.neg s60) (B.sub (B.neg top) B.one);
  check_b "-2^60 + 1" (B.neg top) (B.add (B.neg s60) B.one);
  check_b "2^60 + -2^60" B.zero (B.add s60 (B.neg s60));
  Alcotest.(check (option int)) "2^60 - 1 fits" (Some ((1 lsl 60) - 1)) (B.to_int_opt (B.sub s60 B.one));
  (* limb operands with word-sized results *)
  let big = B.add (p2 100) (B.of_int 7) in
  let q, r = B.divmod big (p2 99) in
  check_b "q small" (B.of_int 2) q;
  check_b "r small" (B.of_int 7) r;
  let q, r = B.divmod (B.mul (p2 70) (B.of_int 12345)) (p2 70) in
  check_b "exact quotient" (B.of_int 12345) q;
  check_b "zero remainder" B.zero r;
  check_b "small / big" B.zero (B.div (B.of_int 5) big);
  check_b "small mod big" (B.of_int (-5)) (B.rem (B.of_int (-5)) big);
  check_b "gcd(6*2^80, 9*2^80) = 3*2^80" (B.mul (B.of_int 3) (p2 80))
    (B.gcd (B.mul (B.of_int 6) (p2 80)) (B.mul (B.of_int 9) (p2 80)));
  check_b "gcd(2^100+1, 2^50) = 1" B.one (B.gcd (B.add (p2 100) B.one) (p2 50));
  check_b "gcd(3*2^100, 12) = 12" (B.of_int 12) (B.gcd (B.mul (B.of_int 3) (p2 100)) (B.of_int 12));
  check_b "2^90 - (2^90 - 5)" (B.of_int 5) (B.sub (p2 90) (B.sub (p2 90) (B.of_int 5)))

(* [B.hash] and [Q.hash] feed polynomial hash-consing and the TRG, DBM and
   constraint hashes; these constants were computed by the pure-limb
   implementation and must not drift with the representation. *)
let test_pinned_hashes () =
  let hundred = "1234567890123456789012345678901234567890123456789012345678901234567890123456789012345678901234567890" in
  List.iter
    (fun (s, h) -> Alcotest.(check int) ("B.hash " ^ s) h (B.hash (B.of_string s)))
    [
      ("0", 2);
      ("1", 94);
      ("-1", 32);
      ("32767", 32860);
      ("32768", 2884);
      ("1073741824", 89374);
      ("1152921504606846975", 1011469891);
      ("1152921504606846976", 85887454);
      ("-1152921504606846976", 28629152);
      ("4611686018427387903", 31355566624);
      (hundred, 1765373267252105295);
      ("-" ^ hundred, 2087907158160383437);
    ];
  List.iter
    (fun (s, h) -> Alcotest.(check int) ("Q.hash " ^ s) h (Q.hash (Q.of_decimal_string s)))
    [
      ("1/2", 6166401);
      ("-7/3", 2492858);
      ("1067/10", 76094943);
      ("1152921504606846976/3", 5634131095042);
      ("0", 131292);
      ("-1", 2099262);
      ("32768/32767", 189220376);
    ]

(* Property tests *)

let arb_small = QCheck2.Gen.int_range (-1_000_000_000) 1_000_000_000

let prop_add_matches_int =
  QCheck2.Test.make ~name:"bigint add matches int add" ~count:500
    QCheck2.Gen.(pair arb_small arb_small)
    (fun (x, y) -> B.to_int_opt (B.add (B.of_int x) (B.of_int y)) = Some (x + y))

let prop_mul_matches_int =
  QCheck2.Test.make ~name:"bigint mul matches int mul" ~count:500
    QCheck2.Gen.(pair arb_small arb_small)
    (fun (x, y) -> B.to_int_opt (B.mul (B.of_int x) (B.of_int y)) = Some (x * y))

let gen_big =
  (* Random bignum from a random decimal string, occasionally negative. *)
  QCheck2.Gen.(
    let* digits = int_range 1 60 in
    let* sign = bool in
    let* ds = list_size (return digits) (int_range 0 9) in
    let s = String.concat "" (List.map string_of_int ds) in
    let s = if s = "" then "0" else s in
    return (if sign then B.neg (B.of_string s) else B.of_string s))

let prop_divmod_identity =
  QCheck2.Test.make ~name:"divmod identity on random bignums" ~count:300
    QCheck2.Gen.(pair gen_big gen_big)
    (fun (a, d) ->
      if B.is_zero d then true
      else begin
        let q, r = B.divmod a d in
        B.equal a (B.add (B.mul q d) r)
        && B.compare (B.abs r) (B.abs d) < 0
        && (B.is_zero r || B.sign r = B.sign a)
      end)

let prop_mul_commutative =
  QCheck2.Test.make ~name:"mul commutative" ~count:300
    QCheck2.Gen.(pair gen_big gen_big)
    (fun (a, c) -> B.equal (B.mul a c) (B.mul c a))

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"to_string/of_string roundtrip" ~count:300 gen_big
    (fun a -> B.equal a (B.of_string (B.to_string a)))

(* Operands near the representation bounds: ±(2^k + d) for small d. *)
let gen_edge =
  QCheck2.Gen.(
    let* k = oneofl [ 0; 14; 15; 29; 30; 31; 45; 59; 60; 61; 62; 63; 64; 75; 90 ] in
    let* d = int_range (-3) 3 in
    let* neg = bool in
    let v = B.add (B.pow (B.of_int 2) k) (B.of_int d) in
    return (if neg then B.neg v else v))

let prop_canonical =
  (* A word-sized result left in limb form would compare unequal to its
     parsed twin. *)
  QCheck2.Test.make ~name:"computed results are canonical" ~count:500
    QCheck2.Gen.(pair (oneof [ gen_edge; gen_big ]) (oneof [ gen_edge; gen_big ]))
    (fun (a, c) ->
      let canonical r =
        let r' = B.of_string (B.to_string r) in
        B.equal r r' && B.hash r = B.hash r'
      in
      (* checked in order: gcd runs through rem, so a non-canonical
         remainder fails here before it can derail the gcd loop *)
      let results =
        [ (fun () -> B.add a c); (fun () -> B.sub a c); (fun () -> B.mul a c);
          (fun () -> B.neg a); (fun () -> B.abs c) ]
        @ (if B.is_zero c then [] else [ (fun () -> B.div a c); (fun () -> B.rem a c) ])
        @ [ (fun () -> B.gcd a c) ]
      in
      List.for_all (fun r -> canonical (r ())) results)

let prop_gcd_divides =
  QCheck2.Test.make ~name:"gcd divides both" ~count:300
    QCheck2.Gen.(pair gen_big gen_big)
    (fun (a, c) ->
      let g = B.gcd a c in
      if B.is_zero g then B.is_zero a && B.is_zero c
      else B.is_zero (B.rem a g) && B.is_zero (B.rem c g))

let suite =
  ( "bigint",
    [
      Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
      Alcotest.test_case "to_string" `Quick test_to_string;
      Alcotest.test_case "of_string roundtrip" `Quick test_of_string_roundtrip;
      Alcotest.test_case "add/sub" `Quick test_add_sub;
      Alcotest.test_case "mul" `Quick test_mul;
      Alcotest.test_case "factorial 50" `Quick test_factorial;
      Alcotest.test_case "divmod" `Quick test_divmod;
      Alcotest.test_case "divmod add-back branch" `Quick test_divmod_knuth_addback;
      Alcotest.test_case "gcd" `Quick test_gcd;
      Alcotest.test_case "pow" `Quick test_pow;
      Alcotest.test_case "compare" `Quick test_compare;
      Alcotest.test_case "to_float" `Quick test_to_float;
      Alcotest.test_case "representation boundaries" `Quick test_repr_boundaries;
      Alcotest.test_case "representation crossings" `Quick test_repr_crossings;
      Alcotest.test_case "pinned hashes" `Quick test_pinned_hashes;
      QCheck_alcotest.to_alcotest prop_add_matches_int;
      QCheck_alcotest.to_alcotest prop_mul_matches_int;
      QCheck_alcotest.to_alcotest prop_divmod_identity;
      QCheck_alcotest.to_alcotest prop_mul_commutative;
      QCheck_alcotest.to_alcotest prop_string_roundtrip;
      QCheck_alcotest.to_alcotest prop_gcd_divides;
      QCheck_alcotest.to_alcotest prop_canonical;
    ] )
