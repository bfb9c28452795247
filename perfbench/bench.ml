(* Entry point:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --tpan PATH --commit REV --out DIR
     bench.exe --self-test
     bench.exe --workload derive-corpus|check-fuzz --seed N --rss-unit K

   Prints one record line (environment and details) and, last, the
   result line: {"correct", "attempted", "failed", "metrics"} with the
   end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
   Exits non-zero, printing no result line, when the run cannot be
   measured. With --rss-unit, runs one unit of an in-process workload's
   memory figure and prints its peak RSS. *)

module J = Tpan_obs.Jsonv

let workloads = [ "derive-corpus"; "serve-hot"; "serve-fresh"; "check-fuzz" ]

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable tpan : string;
  mutable commit : string;
  mutable out : string;
  mutable self_test : bool;
  mutable rss_unit : int option;
}

let parse_args () =
  let a =
    {
      workload = "";
      seed = 1;
      seconds = 10.;
      trace = false;
      tpan = "_build/default/bin/tpan.exe";
      commit = "unknown";
      out = ".perfbench";
      self_test = false;
      rss_unit = None;
    }
  in
  let rec go = function
    | "--workload" :: v :: rest -> a.workload <- v; go rest
    | "--seed" :: v :: rest -> a.seed <- int_of_string v; go rest
    | "--seconds" :: v :: rest -> a.seconds <- float_of_string v; go rest
    | "--trace" :: v :: rest -> a.trace <- v = "1"; go rest
    | "--tpan" :: v :: rest -> a.tpan <- v; go rest
    | "--commit" :: v :: rest -> a.commit <- v; go rest
    | "--out" :: v :: rest -> a.out <- v; go rest
    | "--self-test" :: rest -> a.self_test <- true; go rest
    | "--rss-unit" :: v :: rest -> a.rss_unit <- Some (int_of_string v); go rest
    | [] -> ()
    | x :: _ -> Util.fail "unknown argument %S" x
  in
  go (List.tl (Array.to_list Sys.argv));
  a

let run a =
  let jobs = Tpan_par.Pool.recommended_jobs () in
  match a.workload with
  | "derive-corpus" -> (Derive.run ~seed:a.seed ~seconds:a.seconds ~trace:a.trace, 1, 0)
  | "serve-hot" -> (Serve_hot.run ~exe:a.tpan ~out:a.out ~seed:a.seed ~seconds:a.seconds ~trace:a.trace, 1, 1)
  | "serve-fresh" ->
    (Serve_fresh.run ~exe:a.tpan ~out:a.out ~seed:a.seed ~seconds:a.seconds ~trace:a.trace, 2, 1)
  | "check-fuzz" ->
    (Fuzz.run ~jobs ~seed:a.seed ~seconds:a.seconds ~trace:a.trace, (if a.trace then jobs else 1), 0)
  | w -> Util.fail "unknown workload %S (one of: %s)" w (String.concat ", " workloads)

let metrics_json metrics =
  J.Obj
    (List.map
       (fun (name, value, unit) -> (name, J.Obj [ ("value", J.Float value); ("unit", J.Str unit) ]))
       metrics)

let main () =
  let a = parse_args () in
  if a.self_test then exit (if Selftest.run () then 0 else 1);
  (match a.rss_unit with
  | None -> ()
  | Some k ->
    (match a.workload with
    | "derive-corpus" -> Printf.printf "%.17g\n" (Derive.rss_unit ~seed:a.seed k)
    | "check-fuzz" -> Printf.printf "%.17g\n" (Fuzz.rss_unit ~seed:a.seed k)
    | w -> Util.fail "no memory run for workload %S" w);
    exit 0);
  if not (Sys.file_exists a.out) then Sys.mkdir a.out 0o755;
  let (o : Outcome.t), jobs, workers = run a in
  List.iter
    (fun (n, v, _) -> if not (Float.is_finite v) then Util.fail "metric %s is not a number" n)
    o.Outcome.metrics;
  if a.trace then
    Span.write (Filename.concat a.out (Printf.sprintf "spans-%s-seed%d.ndjson" a.workload a.seed));
  let record =
    J.Obj
      ([
         ("workload", J.Str a.workload);
         ("seed", J.Int a.seed);
         ("seconds", J.Float a.seconds);
         ("trace", J.Bool a.trace);
         ("nproc", J.Int (Domain.recommended_domain_count ()));
         ("jobs", J.Int jobs);
         ("server_workers", J.Int workers);
         ("ocaml", J.Str Sys.ocaml_version);
         ("tpan_version", J.Str Tpan.Version.string);
         ("commit", J.Str a.commit);
       ]
      @ o.Outcome.detail
      @ [ ("metrics", metrics_json o.Outcome.metrics) ])
  in
  let line = J.to_string record in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat a.out "results.ndjson") in
  output_string oc (line ^ "\n");
  close_out oc;
  print_endline line;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (o.Outcome.failed = 0));
            ("attempted", J.Int o.Outcome.attempted);
            ("failed", J.Int o.Outcome.failed);
            ("metrics", metrics_json o.Outcome.metrics);
          ]))

let () =
  (* a vanished server is an error to report, not a signal to die of;
     SIGTERM unwinds, so the server child is stopped on the way out *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise (Util.Bench_error "terminated")));
  try main () with
  | Util.Bench_error msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  | e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 2
