(* Calls into the program, two ways. The artifact path is what a user
   calls and what the untraced runs time. The layer path makes the same
   computation one public function at a time, each under a span, for the
   traced runs; with tracing off it is the artifact path minus the
   cache. Also: the concrete ℚ pipeline that every result is checked
   against. *)

module Q = Tpan_mathkit.Q
module Net = Tpan_petri.Net
module Tpn = Tpan_core.Tpn
module CG = Tpan_core.Concrete
module SG = Tpan_core.Symbolic
module DG = Tpan_perf.Decision_graph
module Rates = Tpan_perf.Rates
module M = Tpan_perf.Measures
module Markov = Tpan_perf.Markov
module Rf = Tpan_symbolic.Ratfun
module Sim = Tpan_sim.Simulator
module Rng = Tpan_sim.Rng
module Check = Tpan_check.Check

let span = Span.span

(* Symbolic states built on the layer path (a traced-run count). *)
let trg_states = Atomic.make 0

(* ----- derivation ----- *)

let closed_forms (n : Inputs.net) =
  let canonical = Tpan.Canonical.of_tpn n.Inputs.tpn in
  List.map
    (fun d ->
      match Tpan.Artifact.closed_form canonical ~transition:d with
      | Ok e -> (d, e)
      | Error e -> Util.fail "%s: %s" n.Inputs.label (Tpan.Error.to_string e))
    n.Inputs.deliveries

let embed_delay e = Rf.of_poly (Tpan_symbolic.Poly.of_linexpr e)

let closed_forms_by_layer (n : Inputs.net) =
  ignore (span "top.canonical" (fun () -> Tpan.Canonical.of_tpn n.Inputs.tpn));
  let g = span "core.trg" (fun () -> SG.build n.Inputs.tpn) in
  ignore (Atomic.fetch_and_add trg_states (SG.Graph.num_states g));
  let dg = span "perf.collapse" (fun () -> DG.of_graph ~add:Tpan_symbolic.Linexpr.add ~mul:Rf.mul g) in
  let res =
    span "perf.rates" (fun () ->
        Rates.solve ~field:Rates.ratfun_field ~embed_prob:Fun.id ~embed_delay dg)
  in
  List.map
    (fun d -> (d, span "perf.throughput" (fun () -> M.Symbolic.throughput res g d)))
    n.Inputs.deliveries

let eval expr point = span "perf.eval" (fun () -> M.Symbolic.eval_at expr point)

(* ----- the reference: concrete exact pipeline at a point ----- *)

let concrete tpn ~transition point =
  match Tpan.Analysis.compute ~throughputs:[ transition ] (Tpn.bind_times tpn point) with
  | Ok r -> List.assoc_opt transition r.Tpan.Analysis.throughputs
  | Error _ -> None

(* A closed form is right when its value at the net's base point equals
   the concrete pipeline's, exactly. *)
let closed_form_correct tpn (transition, expr) =
  match Tpan_check.Sampler.base_point tpn with
  | None -> false
  | Some p -> (
    match (M.Symbolic.eval_at expr p, concrete tpn ~transition p) with
    | v, Some c -> Q.equal v c
    | _, None -> false
    | exception _ -> false)

(* ----- the differential check, by layer -----

   The same three legs [Check.check_case] runs for a generated case —
   closed form, concrete ℚ solve, float Markov chain, Monte-Carlo — with
   the same point and simulation seeds, each under its own span. *)
let check_case_by_layer (cfg : Check.config) (c : Tpan_check.Gen.case) =
  let tpn = c.Tpan_check.Gen.tpn and delivery = c.Tpan_check.Gen.delivery in
  let net = { Inputs.label = ""; tpn; deliveries = [ delivery ] } in
  let expr = List.assoc delivery (closed_forms_by_layer net) in
  let rng = Rng.create ~seed:cfg.Check.seed in
  let seed_rng = Rng.create ~seed:(cfg.Check.seed + 0x9e37) in
  List.iter
    (fun _ ->
      let sim_seed = 1 + Rng.int seed_rng 0x3fffffff in
      match Tpan_check.Sampler.sample ~rng tpn with
      | None -> ()
      | Some point ->
        let bound = Tpn.bind_times tpn point in
        let g = span "core.trg" (fun () -> CG.build bound) in
        let dg = span "perf.collapse" (fun () -> DG.of_graph ~add:Q.add ~mul:Q.mul g) in
        let res =
          span "perf.rates" (fun () ->
              Rates.solve ~field:Rates.q_field ~embed_prob:Fun.id ~embed_delay:Fun.id dg)
        in
        let exact = eval expr point in
        let t = Net.trans_of_name (Tpn.net bound) delivery in
        ignore
          (span "perf.markov" (fun () ->
               Markov.throughput
                 ~probs:(fun e -> Q.to_float e.DG.prob)
                 ~delays:(fun e -> Q.to_float e.DG.delay)
                 res.Rates.dg
                 ~count:(fun e -> List.length (List.filter (( = ) t) e.DG.completed))));
        let exact_f = Q.to_float exact in
        let period = if exact_f > 0. then 1. /. exact_f else 1000. in
        let cycles k = Q.of_int (max 1 (int_of_float (ceil (k *. period)))) in
        ignore
          (span "sim" (fun () ->
               Sim.run_many ~seed:sim_seed ~warmup:(cycles 8.) ~runs:cfg.Check.runs
                 ~horizon:(cycles (float_of_int cfg.Check.horizon_cycles))
                 bound
                 (fun s -> Sim.throughput s t))))
    (List.init cfg.Check.samples Fun.id)
