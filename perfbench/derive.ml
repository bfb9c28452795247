(* derive-corpus: cold closed-form derivation, in process, on one
   domain. Rounds of distinct nets go through [Artifact.closed_form]
   with the caches emptied at each round start, so every call is a
   miss; each net's closed forms are checked after its round, outside
   the timed calls, and each net's time is scaled to nominal host speed
   by the probes around it. The traced run replays the same rounds layer
   by layer. *)

module J = Tpan_obs.Jsonv

let closed_form_lookups () =
  match List.assoc_opt "closed_form" (Tpan.Artifact.cache_stats ()) with
  | Some s -> (s.Tpan_cache.Cache.hits, s.Tpan_cache.Cache.misses)
  | None -> (0, 0)

type tally = {
  mutable times : float list;
  mutable starts : float list;  (** when each net's derivation began *)
  mutable cpus : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable calls : int;
}

let tally () = { times = []; starts = []; cpus = []; attempted = 0; failed = 0; calls = 0 }

(* A host-speed probe every [probe_every] nets (about 0.1 s of work). *)
let probe_every = 24

let run_round tally ~calib ~first_op derive round =
  Tpan.Artifact.reset_caches ();
  let results =
    List.mapi
      (fun i n ->
        if i mod probe_every = 0 then Calib.mark calib;
        let c0 = Util.self_cpu_s () and t0 = Util.now () in
        let forms = Span.op (first_op + i) "derive" (fun () -> derive n) in
        (n, forms, t0, Util.now () -. t0, Util.self_cpu_s () -. c0))
      round
  in
  Calib.mark calib;
  List.iter
    (fun ((n : Inputs.net), forms, t0, dt, cpu) ->
      tally.times <- dt :: tally.times;
      tally.starts <- t0 :: tally.starts;
      tally.cpus <- cpu :: tally.cpus;
      tally.calls <- tally.calls + List.length forms;
      tally.attempted <- tally.attempted + 1;
      if not (List.for_all (Layers.closed_form_correct n.Inputs.tpn) forms) then
        tally.failed <- tally.failed + 1)
    results

(* Set-up: building the first [setup_rounds] rounds of inputs (generator,
   net construction, canonical hashing), median of three; at nominal
   host speed and raw. Its cost depends on the seed (how many nets the
   generator rejects), hence many rounds. *)
let setup_rounds = 30

let setup seed =
  let calib = Calib.create () in
  let times =
    List.init 3 (fun _ ->
        let st = Inputs.stream ~seed ~salt:1 in
        (* each timing starts from the same heap *)
        Gc.full_major ();
        Calib.timed calib (fun () ->
            for _ = 1 to setup_rounds do
              ignore (Inputs.derive_round st)
            done))
  in
  (Util.median (List.map fst times), Util.median (List.map snd times))

let counter = Tpan_obs.Metrics.counter_value

(* Memory: [rss_units] fresh processes each derive a round of their own
   ([rss_unit]); the median of their peak RSS. *)
let rss_units = 5

let rss_unit ~seed k =
  let st = Inputs.stream ~seed ~salt:(1000 + k) in
  List.iter (fun n -> ignore (Layers.closed_forms n)) (Inputs.derive_round st);
  Util.self_peak_rss_mb ()

let peak_rss ~seed =
  Util.median
    (List.init rss_units (fun k ->
         Util.child_peak_rss_mb
           [ "--workload"; "derive-corpus"; "--seed"; string_of_int seed; "--rss-unit"; string_of_int k ]))

let run ~seed ~seconds ~trace =
  let setup_s, raw_setup_s = setup seed in
  let st = Inputs.stream ~seed ~salt:1 in
  let budget = if trace then seconds /. 2. else seconds in
  let u = tally () and calib = Calib.create () in
  let gc0 = Gc.quick_stat () in
  let hits0, misses0 = closed_form_lookups () in
  let start = Util.now () in
  let rec loop k =
    if Util.now () -. start >= budget then k
    else begin
      run_round u ~calib ~first_op:(k * 1000) Layers.closed_forms (Inputs.derive_round st);
      loop (k + 1)
    end
  in
  let rounds = loop 0 in
  let gc1 = Gc.quick_stat () in
  let hits1, misses1 = closed_form_lookups () in
  if hits1 > hits0 || misses1 - misses0 <> u.calls then
    Util.fail "derive-corpus: %d closed-form calls, %d misses, %d hits" u.calls
      (misses1 - misses0) (hits1 - hits0);
  let figures ~times ~cpus ~setup_s =
    let s = Util.summarize times in
    let ops = float_of_int (List.length times) in
    [
      ("ops_per_s", ops /. Util.sum times);
      ("op_p50_ms", Outcome.ms s.Util.p50);
      ("op_tail_ms", Outcome.ms s.Util.tail);
      ("cpu_ms_per_op", Outcome.ms (Util.sum cpus /. ops));
      ("setup_s", setup_s);
    ]
  in
  let at_nominal xs = List.map2 (Calib.at_nominal calib) u.starts xs in
  let times = at_nominal u.times in
  let busy = Util.sum times in
  let ops = List.length times in
  let detail =
    [
      ("rounds", J.Int rounds);
      ("nets", J.Int ops);
      ("closed_form_calls", J.Int u.calls);
      ("op_tail_percentile", J.Float (Util.summarize times).Util.tail_p);
      ("loop", J.Str "batch, 1 domain");
    ]
    @ Outcome.raw calib (figures ~times:u.times ~cpus:u.cpus ~setup_s:raw_setup_s)
  in
  if not trace then
    {
      Outcome.attempted = u.attempted;
      failed = u.failed;
      metrics =
        Outcome.select Outcome.end_to_end
          (figures ~times ~cpus:(at_nominal u.cpus) ~setup_s @ [ ("peak_rss_mb", peak_rss ~seed) ]);
      detail;
    }
  else begin
    let names =
      [ "symbolic.oracle.queries"; "symbolic.oracle.memo_hits"; "symbolic.oracle.memo_misses";
        "mathkit.fm.feasible_checks" ]
    in
    let before = List.map counter names in
    let t = tally () in
    Atomic.set Layers.trg_states 0;
    Span.enabled := true;
    (* the same rounds regenerated: fresh nets carry fresh oracle memos *)
    let again = Inputs.stream ~seed ~salt:1 in
    for k = 0 to rounds - 1 do
      run_round t ~calib ~first_op:(k * 1000) Layers.closed_forms_by_layer (Inputs.derive_round again)
    done;
    Span.enabled := false;
    let d = List.map2 (fun n b -> (n, float_of_int (counter n - b))) names before in
    let get n = List.assoc n d in
    let layers = [ "top.canonical"; "core.trg"; "perf.collapse"; "perf.rates"; "perf.throughput" ] in
    let layer_sum = Util.sum (List.map Span.busy layers) in
    let traced_wall = Util.sum (List.map2 (Calib.at_nominal calib) t.starts t.times) in
    {
      Outcome.attempted = u.attempted + t.attempted;
      failed = u.failed + t.failed;
      metrics =
        Outcome.select Outcome.per_layer
          [
            ("core.trg.busy_s", Span.busy "core.trg");
            ("core.trg.states", float_of_int (Atomic.get Layers.trg_states));
            ("symbolic.oracle.queries", get "symbolic.oracle.queries");
            ( "symbolic.oracle.memo_hit_ratio",
              let h = get "symbolic.oracle.memo_hits" and m = get "symbolic.oracle.memo_misses" in
              if h +. m > 0. then h /. (h +. m) else 0. );
            ("mathkit.fm.runs", get "mathkit.fm.feasible_checks");
            ("perf.collapse.busy_s", Span.busy "perf.collapse");
            ("perf.rates.busy_s", Span.busy "perf.rates");
            ("perf.rates.minor_words", Span.words "perf.rates");
            ("perf.throughput.busy_s", Span.busy "perf.throughput");
            ("top.canonical.busy_s", Span.busy "top.canonical");
            ("gc.minor_words_per_op", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int ops);
            ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
            ("trace.overhead_ratio", traced_wall /. busy);
            ("trace.layer_sum_ratio", layer_sum /. Span.busy "derive");
          ];
      detail = detail @ List.map (fun (n, v) -> (n, J.Float v)) d;
    }
  end
