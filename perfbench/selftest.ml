(* Inputs depend on the seed alone: the same seed must give a
   byte-identical corpus and request stream, another seed a different
   one. *)

let derive_inputs seed =
  let st = Inputs.stream ~seed ~salt:1 in
  List.concat_map
    (fun _ ->
      List.map
        (fun (n : Inputs.net) ->
          Tpan.Canonical.serialization (Tpan.Canonical.of_tpn n.Inputs.tpn)
          ^ String.concat "," n.Inputs.deliveries)
        (Inputs.derive_round st))
    [ 1; 2 ]

let hot_inputs seed =
  let all, stream = Inputs.hot_stream seed (Inputs.hot_set seed) 500 in
  Array.to_list (Array.map (fun i -> all.(i).Inputs.body) stream)

let fresh_inputs seed =
  let f = Inputs.fresh seed in
  List.concat_map
    (fun _ -> Array.to_list (Array.map (fun q -> q.Inputs.body) (Inputs.fresh_block f)))
    [ 1; 2; 3 ]

let fuzz_inputs seed =
  let st = Inputs.stream ~seed ~salt:41 in
  List.init 3 (fun _ -> String.concat "," (List.map string_of_int (Inputs.fuzz_round st)))

let digest inputs = Digest.to_hex (Digest.string (String.concat "\n" inputs))

let run () =
  let seed = 7 in
  let results =
    List.map
      (fun (name, inputs) ->
        let a = digest (inputs seed) and b = digest (inputs seed) and c = digest (inputs (seed + 1)) in
        let ok = a = b && a <> c in
        Printf.printf "%-14s seed %d: %s, again: %s, seed %d: %s  %s\n%!" name seed a b (seed + 1) c
          (if ok then "ok" else "FAIL");
        ok)
      [
        ("derive-corpus", derive_inputs);
        ("serve-hot", hot_inputs);
        ("serve-fresh", fresh_inputs);
        ("check-fuzz", fuzz_inputs);
      ]
  in
  List.for_all Fun.id results
