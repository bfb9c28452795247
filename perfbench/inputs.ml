(* Every input the benchmark sends, derived from its [--seed] alone:
   generated nets, points, request bodies and their order. The program
   under test only ever sees the generated inputs. *)

module J = Tpan_obs.Jsonv

module Q = Tpan_mathkit.Q
module Tpn = Tpan_core.Tpn
module Gen = Tpan_check.Gen
module Sampler = Tpan_check.Sampler
module Sweep = Tpan_perf.Sweep

let sym_models = [ "stopwait-sym"; "abp-sym"; "handshake-sym"; "scheduler-sym"; "ring-sym" ]
(* [pipeline] is left out: it is deterministic, so it has no throughput to ask for. *)
let concrete_models = [ "stopwait"; "abp"; "handshake"; "channel"; "ring"; "batch" ]

let model name =
  match Tpan.Models.find name with Some m -> m | None -> Util.fail "unknown builtin model %s" name

type net = { label : string; tpn : Tpn.t; deliveries : string list }

let builtin name =
  let m = model name in
  { label = name; tpn = m.Tpan.Models.make []; deliveries = m.Tpan.Models.deliveries }

let symbols tpn = List.length (Sampler.vars tpn)

(* ----- generated nets -----

   Derivation cost grows steeply with a net's symbol count: on seeds
   1..4000, nets with 17 or more symbols (2.5% of them) take from 14ms
   to 1.7s each, so a handful of them in one run would swing its totals
   by a third. Every workload therefore draws generated nets with at
   most [max_symbols] symbols. *)
let max_symbols = 16

type stream = { base : int; mutable k : int; seen : (string, unit) Hashtbl.t }

let stream ~seed ~salt = { base = Util.mix seed salt; k = 0; seen = Hashtbl.create 256 }

let gen_seed st =
  st.k <- st.k + 1;
  1 + Util.mix st.base st.k

(* The next generated net of the stream within the symbol cap, distinct
   (by canonical hash) from every net the stream gave before. *)
let rec next_gen ?(cap = max_symbols) st =
  let c = Gen.case ~seed:(gen_seed st) in
  let v = symbols c.Gen.tpn in
  let h = Tpan.Canonical.hash (Tpan.Canonical.of_tpn c.Gen.tpn) in
  if v > cap || Hashtbl.mem st.seen h then next_gen ~cap st
  else begin
    Hashtbl.add st.seen h ();
    (c, v)
  end

let net_of_case (c : Gen.case) =
  { label = Printf.sprintf "gen%d" c.Gen.seed; tpn = c.Gen.tpn; deliveries = [ c.Gen.delivery ] }

(* ----- derive-corpus: rounds of fixed composition -----

   Each round holds generated nets in fixed numbers per symbol count
   (proportional to how often the generator produces each count), then
   the five symbolic builtins. Runs process whole rounds, so every run
   derives the same mix whatever its seed. *)
let quotas = [ (7, 3); (8, 7); (9, 12); (10, 17); (11, 19); (12, 16); (13, 12); (14, 8); (15, 5); (16, 3) ]

(* Generated cases in the numbers [quotas] gives per symbol count. *)
let fill st quotas =
  let left = Hashtbl.create 16 in
  List.iter (fun (v, q) -> Hashtbl.replace left v q) quotas;
  let want = List.fold_left (fun a (_, q) -> a + q) 0 quotas in
  let got = ref [] and n = ref 0 and tries = ref 0 in
  while !n < want do
    incr tries;
    if !tries > 100_000 then Util.fail "generator cannot fill the symbol-count quotas";
    let c, v = next_gen st in
    match Hashtbl.find_opt left v with
    | Some q when q > 0 ->
      Hashtbl.replace left v (q - 1);
      got := c :: !got;
      incr n
    | _ -> ()
  done;
  List.rev !got

let derive_round st = List.map net_of_case (fill st quotas) @ List.map builtin sym_models

(* ----- served requests ----- *)

type point = (string * Q.t) list
type target = Model of string | Inline of string  (** .tpn source *)

type call =
  | Eval of { transition : string; point : point }
  | Analyze of { throughputs : string list }
  | Sweep of { transitions : string list; bindings : point; axis : Sweep.axis }

type req = { cls : string; target : target; tpn : Tpn.t; call : call; body : string }

let path r =
  match r.call with Eval _ -> "/eval" | Analyze _ -> "/analyze" | Sweep _ -> "/sweep"

let q_json q = J.Str (Q.to_string q)
let point_json p = J.Obj (List.map (fun (n, q) -> (n, q_json q)) p)

let body_of target call =
  let net =
    match target with Model m -> ("model", J.Str m) | Inline src -> ("net", J.Str src)
  in
  let fields =
    match call with
    | Eval { transition; point } -> [ ("transition", J.Str transition); ("point", point_json point) ]
    | Analyze { throughputs } -> [ ("throughputs", J.List (List.map (fun t -> J.Str t) throughputs)) ]
    | Sweep { transitions; bindings; axis } ->
      [
        ("transitions", J.List (List.map (fun t -> J.Str t) transitions));
        ("bindings", point_json bindings);
        ( "axes",
          J.List
            [
              J.Obj
                [
                  ("name", J.Str axis.Sweep.name);
                  ("lo", q_json axis.Sweep.lo);
                  ("hi", q_json axis.Sweep.hi);
                  ("steps", J.Int axis.Sweep.steps);
                ];
            ] );
      ]
  in
  J.to_string (J.Obj (net :: fields))

let make cls target tpn call = { cls; target; tpn; call; body = body_of target call }

let sample_point ~seed tpn =
  match Sampler.sample ~rng:(Tpan_sim.Rng.create ~seed) tpn with
  | Some p -> p
  | None -> Util.fail "no feasible point"

let base_point tpn =
  match Sampler.base_point tpn with Some p -> p | None -> Util.fail "no feasible base point"

let pick r l = List.nth l (Util.below r (List.length l))

let model_eval ~seed r name =
  let n = builtin name in
  let transition = pick r n.deliveries in
  make ("eval." ^ name) (Model name) n.tpn (Eval { transition; point = sample_point ~seed n.tpn })

let inline_eval (c : Gen.case) =
  let src = Tpan_dsl.Printer.to_string c.Gen.tpn in
  make "eval.inline" (Inline src) c.Gen.tpn
    (Eval { transition = c.Gen.delivery; point = base_point c.Gen.tpn })

(* A four-step grid on one symbol around a sampled point, every grid
   point inside the constraint region (frequency symbols first: they
   are unconstrained). *)
let sweep_req ~seed r name =
  let n = builtin name in
  let p = sample_point ~seed n.tpn in
  let order = Array.of_list p in
  Util.shuffle r order;
  let candidates =
    List.stable_sort
      (fun (a, _) (b, _) -> compare (a.[0] <> 'f') (b.[0] <> 'f'))
      (Array.to_list order)
  in
  let fits (x, v) =
    let axis = { Sweep.name = x; lo = v; hi = Q.mul v (Q.of_ints 3 2); steps = 4 } in
    let bindings = List.remove_assoc x p in
    if List.for_all (fun q -> Sampler.satisfies n.tpn ((x, q) :: bindings)) (Sweep.axis_values axis)
    then Some (axis, bindings)
    else None
  in
  match List.find_map fits candidates with
  | None -> Util.fail "no feasible sweep axis on %s" name
  | Some (axis, bindings) ->
    make ("sweep." ^ name) (Model name) n.tpn
      (Sweep { transitions = [ List.hd n.deliveries ]; bindings; axis })

(* serve-hot: a fixed set of requests the warm-up makes cacheable, and
   a seeded stream of indices into it. *)
let hot_set seed =
  let r = Util.rng (Util.mix seed 21) in
  let evals =
    List.concat_map
      (fun name ->
        let n = builtin name in
        List.concat_map
          (fun transition ->
            let sampled = if name = "abp-sym" then 1 else 2 in
            make ("eval." ^ name) (Model name) n.tpn (Eval { transition; point = base_point n.tpn })
            :: List.init sampled (fun _ ->
                   make ("eval." ^ name) (Model name) n.tpn
                     (Eval { transition; point = sample_point ~seed:(Util.next r) n.tpn })))
          n.deliveries)
      sym_models
  in
  let st = stream ~seed ~salt:22 in
  let inline = List.init 6 (fun _ -> inline_eval (fst (next_gen ~cap:12 st))) in
  let analyses =
    List.map
      (fun name ->
        let n = builtin name in
        make ("analyze." ^ name) (Model name) n.tpn (Analyze { throughputs = n.deliveries }))
      concrete_models
  in
  (Array.of_list evals, Array.of_list inline, Array.of_list analyses)

(* Class weights 2:1:1 — evals by model name, inline evals, analyses. *)
let hot_stream seed (evals, inline, analyses) n =
  let r = Util.rng (Util.mix seed 23) in
  let all = Array.concat [ evals; inline; analyses ] in
  let ne = Array.length evals and ni = Array.length inline in
  ( all,
    Array.init n (fun _ ->
        match Util.below r 4 with
        | 0 | 1 -> Util.below r ne
        | 2 -> ne + Util.below r ni
        | _ -> ne + ni + Util.below r (Array.length analyses)) )

(* serve-fresh: blocks of 16 requests never sent before, with fixed
   counts per class, in seeded order. Inline nets are the majority, so
   the median request does real work (parse, hash, derive, insert)
   rather than timing the loopback round trip. *)
type fresh = { seed : int; gens : stream; mutable block : int; sent : (string, unit) Hashtbl.t }

let fresh seed = { seed; gens = stream ~seed ~salt:31; block = 0; sent = Hashtbl.create 1024 }

let fresh_block f =
  f.block <- f.block + 1;
  let r = Util.rng (Util.mix f.seed (1000 + f.block)) in
  let rec unique mk =
    let q = mk (Util.next r) in
    if Hashtbl.mem f.sent q.body then unique mk
    else begin
      Hashtbl.add f.sent q.body ();
      q
    end
  in
  let evals name k = List.init k (fun _ -> unique (fun seed -> model_eval ~seed r name)) in
  let reqs =
    evals "stopwait-sym" 1 @ evals "handshake-sym" 1
    @ evals (if f.block mod 2 = 0 then "scheduler-sym" else "ring-sym") 1
    @ evals "abp-sym" 1
    @ List.init 10 (fun _ -> inline_eval (fst (next_gen ~cap:14 f.gens)))
    @ [ unique (fun seed -> sweep_req ~seed r "stopwait-sym");
        unique (fun seed -> sweep_req ~seed r "handshake-sym") ]
  in
  let a = Array.of_list reqs in
  Util.shuffle r a;
  a

(* check-fuzz: rounds of generator seeds in half the derive-corpus
   numbers per symbol count (54 a round). A case's cost follows its net's
   size, so runs that check whole rounds check the same mix whatever
   their seed. *)
let fuzz_round st = List.map (fun c -> c.Gen.seed) (fill st (List.map (fun (v, q) -> (v, (q + 1) / 2)) quotas))

(* Base seeds of [fuzz_chunk_size] consecutive generator seeds
   ([Check.fuzz] takes consecutive seeds), all within the symbol cap:
   the units of check-fuzz's memory figure. *)
let fuzz_chunk_size = 8

let rec fuzz_chunk st =
  let b = 1 + (gen_seed st mod 0x3FFFFFF) in
  if List.for_all (fun i -> symbols (Gen.case ~seed:(b + i)).Gen.tpn <= max_symbols)
       (List.init fuzz_chunk_size Fun.id)
  then b
  else fuzz_chunk st
