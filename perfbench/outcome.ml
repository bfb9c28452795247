(* What one run reports: operations attempted and failed (a wrong
   answer is a failure), metrics by name with units, and details that go
   on the record line beside them. *)

module J = Tpan_obs.Jsonv

type t = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  detail : (string * J.t) list;
}

let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("cpu_ms_per_op", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* Every traced run prints all of these; a layer a workload does not
   reach reads 0. *)
let per_layer =
  [
    ("core.trg.busy_s", "s");
    ("core.trg.states", "count");
    ("symbolic.oracle.queries", "count");
    ("symbolic.oracle.memo_hit_ratio", "ratio");
    ("mathkit.fm.runs", "count");
    ("perf.collapse.busy_s", "s");
    ("perf.rates.busy_s", "s");
    ("perf.rates.minor_words", "words");
    ("perf.throughput.busy_s", "s");
    ("perf.eval.busy_s", "s");
    ("perf.eval.minor_words", "words");
    ("perf.eval.closed_form_bytes", "B");
    ("perf.eval.share", "ratio");
    ("top.canonical.busy_s", "s");
    ("dsl.parse.busy_s", "s");
    ("top.artifact.hit_s", "s");
    ("serve.handle.p50_ms", "ms");
    ("serve.transport.p50_ms", "ms");
    ("serve.lat_p50_ms.low", "ms");
    ("serve.lat_tail_ms.low", "ms");
    ("serve.gen_late_ms", "ms");
    ("cache.symbolic.hit_ratio", "ratio");
    ("cache.closed_form.hit_ratio", "ratio");
    ("cache.eval.hit_ratio", "ratio");
    ("cache.report.hit_ratio", "ratio");
    ("cache.evictions", "count");
    ("serve.errors", "count");
    ("serve.shed", "count");
    ("sim.busy_s", "s");
    ("perf.markov.busy_s", "s");
    ("par.speedup", "ratio");
    ("par.utilization", "ratio");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_ratio", "ratio");
    ("trace.layer_sum_ratio", "ratio");
  ]

(* Fill [names] from [values], 0 for the absent ones; a value not in
   [names] is a benchmark bug. *)
let select names values =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n names) then Util.fail "metric %s is not declared" n)
    values;
  List.map
    (fun (n, unit) -> (n, Option.value ~default:0. (List.assoc_opt n values), unit))
    names

let ms s = 1000. *. s

(* The host's slowdown over the run and the end-to-end figures before
   scaling to nominal host speed, for the record line. *)
let raw calib figures =
  [
    ("host_slowdown", J.Float (Calib.slowdown calib));
    ("raw", J.Obj (List.map (fun (n, v) -> (n, J.Float v)) figures));
  ]
