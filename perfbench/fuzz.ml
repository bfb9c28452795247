(* check-fuzz: [Check.fuzz] over generated cases, in process, a case at
   a time, in whole rounds of fixed composition ([Inputs.fuzz_round]).
   The only workload that runs the Monte-Carlo simulator, the float
   Markov chain and the par pool. Each case's time is scaled to nominal
   host speed by the probes around it.

   The timed run checks at jobs = 1. At jobs = 2 the pool spawns and
   joins a domain per 8-case call, and on a 2-vCPU VM 3 of 16 runs
   hung: the main domain spun alone at full CPU after its worker had
   exited, and no signal handler ran. Two busy domains also meet at
   every minor collection, so one descheduled vCPU stalls both, which
   the probes do not see. The traced run measures the pool: it checks the same cases
   on it in one fork-join (par.speedup), then replays them layer by
   layer on it, also in one. *)

module J = Tpan_obs.Jsonv
module Check = Tpan_check.Check

let chunk = Inputs.fuzz_chunk_size

let config = Check.quick Check.default

let fuzz ?(cases = chunk) base = Check.fuzz ~config:{ config with Check.seed = base } ~jobs:1 ~cases ()

(* A case fails when it errors or its lanes disagree. A disagreement of
   the Monte-Carlo lane alone is a statistical verdict on four short
   replications, and [Check.quick] gives false alarms at about one case
   in 7000 (generated case 3579710: exact 130/2341 = 0.05553 against a
   40 x 20000-cycle simulation's 0.05575 +- 0.00023); it counts as a
   failure only if the case also disagrees under [Check.default]'s
   longer simulation. *)
let case_failed ((c : Tpan_check.Gen.case), result) =
  let sim_only o =
    List.for_all
      (fun f -> match f.Check.disagreement with Check.Exact_vs_sim _ -> true | _ -> false)
      o.Check.failures
  in
  match result with
  | Ok o when Check.ok o -> false
  | Ok o when sim_only o -> (
    match Check.check_case ~config:{ Check.default with Check.seed = c.Tpan_check.Gen.seed } c with
    | Ok o -> not (Check.ok o)
    | Error _ -> true)
  | _ -> true

(* Set-up: generating the first [setup_rounds] rounds of cases and their
   base points, median of three; at nominal host speed and raw. *)
let setup_rounds = 10

let setup seed =
  let calib = Calib.create () in
  let times =
    List.init 3 (fun _ ->
        let st = Inputs.stream ~seed ~salt:41 in
        (* each timing starts from the same heap *)
        Gc.full_major ();
        Calib.timed calib (fun () ->
            for _ = 1 to setup_rounds do
              List.iter
                (fun b -> ignore (Tpan_check.Sampler.base_point (Tpan_check.Gen.case ~seed:b).Tpan_check.Gen.tpn))
                (Inputs.fuzz_round st)
            done))
  in
  (Util.median (List.map fst times), Util.median (List.map snd times))

(* Memory: [rss_units] fresh processes each check a chunk of their own
   ([rss_unit]); the median of their peak RSS. *)
let rss_units = 5

let rss_unit ~seed k =
  ignore (fuzz (Inputs.fuzz_chunk (Inputs.stream ~seed ~salt:(2000 + k))));
  Util.self_peak_rss_mb ()

let peak_rss ~seed =
  Util.median
    (List.init rss_units (fun k ->
         Util.child_peak_rss_mb
           [ "--workload"; "check-fuzz"; "--seed"; string_of_int seed; "--rss-unit"; string_of_int k ]))

type chunk_run = {
  seeds : int list;
  start : float;
  wall : float;
  cpu : float;
  per_case : float list;  (** each case's wall *)
}

(* Whole rounds from [st] at jobs = 1 until [budget] seconds pass, a case
   at a time so that each has its own time, in chunks of [chunk] cases
   with a host-speed probe before each; and the failed-case count. *)
let timed_rounds ~calib st ~budget =
  let start = Util.now () in
  let rec split = function
    | [] -> []
    | l -> List.filteri (fun i _ -> i < chunk) l :: split (List.filteri (fun i _ -> i >= chunk) l)
  in
  let rec go acc failed = function
    | [] when Util.now () -. start >= budget ->
      Calib.mark calib;
      (List.rev acc, failed)
    | [] -> go acc failed (split (Inputs.fuzz_round st))
    | seeds :: rest ->
      Calib.mark calib;
      let c0 = Util.self_cpu_s () and t0 = Util.now () in
      let timed =
        List.map
          (fun b ->
            let t = Util.now () in
            let r = fuzz ~cases:1 b in
            (r, Util.now () -. t))
          seeds
      in
      let r = List.concat_map fst timed and per_case = List.map snd timed in
      let dt = Util.now () -. t0 and cpu = Util.self_cpu_s () -. c0 in
      let c = { seeds; start = t0; wall = dt; cpu; per_case } in
      go (c :: acc) (failed + List.length (List.filter case_failed r)) rest
  in
  go [] 0 []

let run ~jobs ~seed ~seconds ~trace =
  let setup_s, raw_setup_s = setup seed in
  let st = Inputs.stream ~seed ~salt:41 in
  let calib = Calib.create () in
  let gc0 = Gc.quick_stat () in
  let chunks, failed = timed_rounds ~calib st ~budget:(if trace then seconds /. 4. else seconds) in
  let gc1 = Gc.quick_stat () in
  let cases = List.fold_left (fun a c -> a + List.length c.seeds) 0 chunks in
  let figures ~per_case ~walls ~cpus ~setup_s =
    let per_case = Util.summarize per_case in
    [
      ("ops_per_s", float_of_int cases /. Util.sum walls);
      ("op_p50_ms", Outcome.ms per_case.Util.p50);
      ("op_tail_ms", Outcome.ms per_case.Util.tail);
      ("cpu_ms_per_op", Outcome.ms (Util.sum cpus /. float_of_int cases));
      ("setup_s", setup_s);
    ]
  in
  let nominal f = List.map (fun c -> Calib.at_nominal calib c.start (f c)) chunks in
  let walls = nominal (fun c -> c.wall) in
  let per_case =
    List.concat_map (fun c -> List.map (Calib.at_nominal calib c.start) c.per_case) chunks
  in
  let busy = Util.sum walls in
  let detail =
    [
      ("loop", J.Str "batch, whole rounds of 54 cases, one Check.fuzz call per case, jobs = 1");
      ("cases", J.Int cases);
      ("op_tail_percentile", J.Float (Util.tail_percentile cases));
    ]
    @ Outcome.raw calib
        (figures
           ~per_case:(List.concat_map (fun c -> c.per_case) chunks)
           ~walls:(List.map (fun c -> c.wall) chunks)
           ~cpus:(List.map (fun c -> c.cpu) chunks)
           ~setup_s:raw_setup_s)
  in
  if not trace then
    {
      Outcome.attempted = cases;
      failed;
      metrics =
        Outcome.select Outcome.end_to_end
          (figures ~per_case ~walls ~cpus:(nominal (fun c -> c.cpu)) ~setup_s
          @ [ ("peak_rss_mb", peak_rss ~seed) ]);
      detail;
    }
  else begin
    (* the same cases on the pool, each pass one fork-join, so the pool
       starts its domains once per pass *)
    let seeds = List.concat_map (fun c -> c.seeds) chunks in
    let on_pool f = Tpan_par.Pool.map ~jobs f seeds in
    let pool_calib = Calib.create () in
    let pooled = ref [] in
    let pooled_wall, _ =
      Calib.timed pool_calib (fun () -> pooled := List.concat (on_pool (fun b -> fuzz ~cases:1 b)))
    in
    let failed1 = List.length (List.filter case_failed !pooled) in
    Span.enabled := true;
    let traced_wall, raw_wall =
      Calib.timed pool_calib (fun () ->
          ignore
            (on_pool (fun b ->
                 Span.op b "case" (fun () ->
                     Layers.check_case_by_layer { config with Check.seed = b } (Tpan_check.Gen.case ~seed:b)))))
    in
    Span.enabled := false;
    {
      Outcome.attempted = 2 * cases;
      failed = failed + failed1;
      metrics =
        Outcome.select Outcome.per_layer
          [
            ("core.trg.busy_s", Span.busy "core.trg");
            ("core.trg.states", float_of_int (Atomic.get Layers.trg_states));
            ("perf.collapse.busy_s", Span.busy "perf.collapse");
            ("perf.rates.busy_s", Span.busy "perf.rates");
            ("perf.rates.minor_words", Span.words "perf.rates");
            ("perf.throughput.busy_s", Span.busy "perf.throughput");
            ("perf.eval.busy_s", Span.busy "perf.eval");
            ("perf.eval.minor_words", Span.words "perf.eval");
            ("top.canonical.busy_s", Span.busy "top.canonical");
            ("sim.busy_s", Span.busy "sim");
            ("perf.markov.busy_s", Span.busy "perf.markov");
            ("par.speedup", busy /. pooled_wall);
            ("par.utilization", Span.busy "case" /. (raw_wall *. float_of_int jobs));
            ("gc.minor_words_per_op", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int cases);
            ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
            ("trace.overhead_ratio", traced_wall /. pooled_wall);
          ];
      detail;
    }
  end
