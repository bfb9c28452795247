(* serve-hot: one keep-alive connection to a server warmed on the
   symbolic builtins. Every request in the stream was made once in the
   warm-up, so all compute is cached: the run measures transport,
   framing, routing, parsing, canonical hashing, cache lookup and
   envelope encoding, and every answer must repeat its warm-up payload
   byte for byte (trace id aside).

   Phases:
   - a closed loop with [depth] requests outstanding, in [slices] parts
     with a host-speed probe between them: the connection's capacity,
     its per-request latency and the server's CPU time per request (the
     gated figures, each slice's scaled to nominal host speed);
   - an open loop at a low and at a high fixed rate, pipelined, latency
     timed from each request's due time;
   - a rate ladder, whose highest step with a tail under [limit_ms] and
     no growing backlog is the sustained rate.
   Rates and tails are medians over equal windows (over the slices for
   the closed loop), so a stall of the shared machine moves one window,
   not the figure. The open-loop figures go on the record line: on a
   2-CPU virtual machine their run-to-run spread is too wide to gate on.

   The generator shares the server's CPU for the closed loop and moves
   to a CPU of its own for the open loop (Serve_common.placement).

   The traced run repeats the low rate with spans, then replays the
   stream in process through [Serve.handle] and through the layers it
   calls. *)

module J = Tpan_obs.Jsonv

let low_rate = 1000.
let high_rate = 2600.
let ladder = [ 2600.; 3200.; 3800. ]
let limit_ms = 10.
let windows = 8
let depth = 8

(* The closed loop runs in [slices] equal parts with a host-speed probe
   between them, taken while the server is idle. *)
let slices = 16

(* A phase whose generator sent later than this, at its tail, is run
   again once; a second late phase makes the run invalid. *)
let late_slack_ms = 10.

let warmup_s = 0.5

type phase = {
  rate : float;  (** 0 for the closed loop *)
  lat : float list;  (** seconds from due (or send) time to answer, in send order *)
  late : float list;  (** seconds from due time to send *)
  mismatches : int;  (** answers not byte-equal to the reference (or not 200) *)
  achieved : float;  (** answers per second, median over the windows *)
  backlog : int;  (** requests outstanding when the last one was sent *)
  cpu : float;  (** server CPU seconds over the phase *)
}

let windowed f samples =
  let a = Array.of_list samples in
  let w = Array.length a / windows in
  Util.median (List.init windows (fun k -> f (Array.to_list (Array.sub a (k * w) w))))

let windowed_tail samples = windowed (fun l -> (Util.summarize l).Util.tail) samples
let tail_percentile samples = Util.tail_percentile (List.length samples / windows)

(* Drive [conn] for [dur] seconds from [stream] at [first]: open loop
   when [rate] is given (each request sent when due), else closed with
   [depth] requests outstanding. Each answer is compared with its
   reference once its latency has been taken. *)
let drive ?(traced = false) ?rate s conn ~refs ~bytes ~stream ~first ~dur =
  let n_max = match rate with Some r -> max 1 (int_of_float (r *. dur)) | None -> max_int in
  let t0 = Util.now () +. 0.002 in
  let stop_at = t0 +. dur in
  let due i = match rate with Some r -> t0 +. (float_of_int i /. r) | None -> Util.now () in
  let finished sent =
    match rate with None -> Util.now () >= stop_at | Some _ -> sent = n_max
  in
  let may_send sent recvd =
    (not (finished sent))
    && match rate with Some _ -> due sent <= Util.now () | None -> sent - recvd < depth
  in
  let sent_at = Queue.create () in
  let lat = ref [] and late = ref [] and done_in = Array.make windows 0 in
  let sent = ref 0 and recvd = ref 0 and backlog = ref 0 and bad = ref 0 in
  let cpu0 = Server.cpu_s s in
  while not (finished !sent && !recvd = !sent) do
    if Util.now () > stop_at +. 30. then Util.fail "%d answers missing" (!sent - !recvd);
    while may_send !sent !recvd do
      let d = due !sent in
      if first + !sent >= Array.length stream then Util.fail "request stream too short";
      late := (Util.now () -. d) :: !late;
      Queue.add d sent_at;
      Http.enqueue conn bytes.(stream.(first + !sent));
      incr sent;
      if finished !sent then backlog := !sent - !recvd
    done;
    Http.flush_some conn;
    Http.fill_some conn;
    let rec take () =
      match Http.take_response conn with
      | None -> ()
      | Some r ->
        let now = Util.now () and d = Queue.take sent_at in
        lat := (now -. d) :: !lat;
        if traced then
          Span.record
            { Span.id = 0; name = "serve.request"; start = d; stop = now; parent = 0;
              op = first + !recvd; minor_words = 0. };
        if r.Http.status <> 200 || Http.strip_trace_id r.Http.body <> refs.(stream.(first + !recvd))
        then incr bad;
        let w = int_of_float (float_of_int windows *. (now -. t0) /. dur) in
        if w >= 0 && w < windows then done_in.(w) <- done_in.(w) + 1;
        incr recvd;
        take ()
    in
    take ();
    if !recvd < !sent || not (finished !sent) then
      Http.wait [ conn ]
        ~until:(match rate with Some _ when not (finished !sent) -> due !sent | _ -> Util.now () +. 0.05)
  done;
  let window_s = dur /. float_of_int windows in
  {
    rate = Option.value rate ~default:0.;
    lat = List.rev !lat;
    late = List.rev !late;
    mismatches = !bad;
    achieved = Util.median (Array.to_list (Array.map (fun k -> float_of_int k /. window_s) done_in));
    backlog = !backlog;
    cpu = Server.cpu_s s -. cpu0;
  }

let meets_limit p =
  Outcome.ms (windowed_tail p.lat) <= limit_ms
  && float_of_int p.backlog <= (p.rate *. limit_ms /. 1000.) +. 1.

(* The reference payloads: each hot request once, checked against the
   concrete pipeline where it is an evaluation. *)
let references conn (all : Inputs.req array) =
  let failed = ref 0 in
  let refs =
    Array.map
      (fun (q : Inputs.req) ->
        let r = Http.call conn ~meth:"POST" ~path:(Inputs.path q) ~body:q.Inputs.body in
        if r.Http.status <> 200 then
          Util.fail "warm-up %s answered %d: %s" q.Inputs.cls r.Http.status r.Http.body;
        if not (Check_resp.correct q r.Http.body) then incr failed;
        Http.strip_trace_id r.Http.body)
      all
  in
  (refs, !failed)

(* In-process replay of the first [n] stream requests: through
   [Serve.handle] (per-request wall), then through the layers it calls,
   with spans. *)
let replay (all : Inputs.req array) stream n =
  Tpan.Artifact.configure ();
  ignore (Tpan.Artifact.warm ~max_states:100_000 Inputs.sym_models);
  let config = { Tpan_serve.Serve.default_config with Tpan_serve.Serve.max_states = Some 100_000 } in
  let handle (q : Inputs.req) =
    let r = Tpan_serve.Serve.handle config ~meth:"POST" ~target:(Inputs.path q) ~body:q.Inputs.body in
    if r.Tpan_serve.Serve.status <> 200 then
      Util.fail "in-process %s answered %d" q.Inputs.cls r.Tpan_serve.Serve.status
  in
  Array.iter handle all;
  let gc0 = Gc.quick_stat () in
  let times =
    List.init n (fun i ->
        let t0 = Util.now () in
        handle all.(stream.(i));
        Util.now () -. t0)
  in
  let gc1 = Gc.quick_stat () in
  Span.enabled := true;
  for i = 0 to n - 1 do
    let q = all.(stream.(i)) in
    Span.op i "request" (fun () ->
        let tpn =
          match q.Inputs.target with
          | Inputs.Inline src -> Span.span "dsl.parse" (fun () -> Tpan_dsl.Parser.parse_string src)
          | Inputs.Model _ -> q.Inputs.tpn
        in
        let canonical = Span.span "top.canonical" (fun () -> Tpan.Canonical.of_tpn tpn) in
        Span.span "top.artifact" (fun () ->
            match q.Inputs.call with
            | Inputs.Eval { transition; point } ->
              ignore (Tpan.Artifact.eval ~max_states:100_000 canonical ~transition ~point)
            | Inputs.Analyze { throughputs } ->
              ignore (Tpan.Artifact.analysis ~max_states:100_000 ~throughputs canonical)
            | Inputs.Sweep _ -> ()))
  done;
  Span.enabled := false;
  ( Util.median times,
    (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int n,
    float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) )

let ladder_json steps =
  J.List
    (List.map
       (fun p ->
         J.Obj
           [
             ("rate", J.Float p.rate);
             ("achieved", J.Float p.achieved);
             ("tail_ms", J.Float (Outcome.ms (windowed_tail p.lat)));
             ("backlog", J.Int p.backlog);
           ])
       steps)

let run ~exe ~out ~seed ~seconds ~trace =
  let evals, inline, analyses = Inputs.hot_set seed in
  (* room for 20k answers a second over the whole run *)
  let all, stream =
    Inputs.hot_stream seed (evals, inline, analyses) (int_of_float (20_000. *. (seconds +. 1.)))
  in
  let bytes = Array.map (fun q -> Http.request_bytes ~meth:"POST" ~path:(Inputs.path q) ~body:q.Inputs.body) all in
  let cpu = Serve_common.placement () and calib = Calib.create () in
  Serve_common.with_server ?cpu ~calib ~exe ~out [ "--warm"; String.concat "," Inputs.sym_models ]
    (fun s (setup_s, raw_setup_s) ->
      let conn = Http.connect s.Server.port in
      Fun.protect ~finally:(fun () -> Http.close conn) (fun () ->
          let refs, ref_failed = references conn all in
          let next = ref 0 and measured = ref [] in
          let phase ?traced ?rate dur =
            let run () =
              Server.check_alive s;
              let p = drive ?traced ?rate s conn ~refs ~bytes ~stream ~first:!next ~dur in
              next := !next + List.length p.lat;
              measured := p :: !measured;
              p
            in
            let run () = if rate = None then run () else Serve_common.apart cpu run in
            let late p = Outcome.ms (windowed_tail p.late) in
            let p = run () in
            if late p <= late_slack_ms then p
            else
              let p = run () in
              if late p <= late_slack_ms then p
              else Util.fail "generator ran %.1fms late (slack %.0fms): run invalid" (late p) late_slack_ms
          in
          ignore (phase ~rate:low_rate warmup_s);
          measured := [];
          let before = Server.scrape s in
          let result =
            if not trace then begin
              let closed =
                List.init slices (fun _ ->
                    Calib.mark calib;
                    let t0 = Util.now () in
                    let p = phase (0.45 *. seconds /. float_of_int slices) in
                    (p, (t0 +. Util.now ()) /. 2.))
              in
              Calib.mark calib;
              let low = phase ~rate:low_rate (0.15 *. seconds) in
              let high = phase ~rate:high_rate (0.2 *. seconds) in
              let step_s = 0.2 *. seconds /. float_of_int (List.length ladder) in
              let rec climb best acc = function
                | [] -> (best, List.rev acc)
                | rate :: rest ->
                  let p = phase ~rate step_s in
                  if meets_limit p then climb (Some p) (p :: acc) rest else (best, List.rev (p :: acc))
              in
              let best, steps = climb None [] ladder in
              (* each slice's figures scaled by the host speed around it,
                 but for the tail: with the generator and the server on one
                 CPU, it is the scheduler's time slice (5.1-5.6 ms raw over
                 ten runs whose probes moved by a half), not CPU work *)
              let figures scale ~setup_s =
                let parts = List.map (fun (p, mid) -> (p, scale mid)) closed in
                let n = List.fold_left (fun a (p, _) -> a + List.length p.lat) 0 parts in
                [
                  ("ops_per_s", Util.median (List.map (fun (p, k) -> p.achieved /. k) parts));
                  ( "op_p50_ms",
                    Outcome.ms
                      (Util.median (List.concat_map (fun (p, k) -> List.map (fun l -> l *. k) p.lat) parts)) );
                  ( "op_tail_ms",
                    Outcome.ms (Util.median (List.map (fun (p, _) -> (Util.summarize p.lat).Util.tail) parts)) );
                  ( "cpu_ms_per_op",
                    Outcome.ms (Util.sum (List.map (fun (p, k) -> k *. p.cpu) parts) /. float_of_int n) );
                  ("setup_s", setup_s);
                  ("peak_rss_mb", Server.peak_rss_mb s);
                ]
              in
              let slice_n = List.fold_left (fun a (p, _) -> min a (List.length p.lat)) max_int closed in
              `E2e
                ( figures (Calib.scale calib) ~setup_s,
                  [
                    ("op_tail_percentile", J.Float (Util.tail_percentile slice_n));
                    ("lat_p50_ms.low", J.Float (Outcome.ms (Util.median low.lat)));
                    ("lat_tail_ms.low", J.Float (Outcome.ms (windowed_tail low.lat)));
                    ("lat_p50_ms.high", J.Float (Outcome.ms (Util.median high.lat)));
                    ("lat_tail_ms.high", J.Float (Outcome.ms (windowed_tail high.lat)));
                    ("lat_tail_percentile", J.Float (tail_percentile high.lat));
                    ("max_rps", match best with Some p -> J.Float p.achieved | None -> J.Null);
                    ("ladder", ladder_json steps);
                    ( "slices",
                      J.List
                        (List.map
                           (fun (p, mid) ->
                             J.Obj [ ("achieved", J.Float p.achieved); ("scale", J.Float (Calib.scale calib mid)) ])
                           closed) );
                  ]
                  @ Outcome.raw calib (figures (fun _ -> 1.) ~setup_s:raw_setup_s) )
            end
            else begin
              let low = phase ~rate:low_rate (0.25 *. seconds) in
              let traced = phase ~traced:true ~rate:low_rate (0.25 *. seconds) in
              `Layers (low, traced)
            end
          in
          let after = Server.scrape s in
          let phases = !measured in
          let late =
            windowed_tail (List.concat_map (fun p -> p.late) (List.filter (fun p -> p.rate > 0.) phases))
          in
          let attempted = Array.length all + List.fold_left (fun a p -> a + List.length p.lat) 0 phases in
          let failed = ref_failed + List.fold_left (fun a p -> a + p.mismatches) 0 phases in
          let common =
            [
              ( "loop",
                J.Str
                  (Printf.sprintf
                     "1 pipelined keep-alive connection: closed (%d outstanding), then open at fixed rates"
                     depth) );
              ("rates", J.List (List.map (fun r -> J.Float r) (low_rate :: high_rate :: ladder)));
              ("limit_ms", J.Float limit_ms);
              ("gen_late_ms", J.Float (Outcome.ms late));
              ("hot_set", J.Int (Array.length all));
              ("pinned", J.Bool (cpu <> None));
            ]
          in
          match result with
          | `E2e (metrics, detail) ->
            {
              Outcome.attempted;
              failed;
              metrics = Outcome.select Outcome.end_to_end metrics;
              detail = common @ detail;
            }
          | `Layers (low, traced) ->
            let n = 3000 in
            let handle_p50, words, majors = replay all stream n in
            let hits = Span.named "top.artifact" in
            let low_p50 = Util.median low.lat in
            {
              Outcome.attempted;
              failed;
              metrics =
                Outcome.select Outcome.per_layer
                  (Serve_common.cache_metrics before after
                  @ [
                      ("serve.lat_p50_ms.low", Outcome.ms low_p50);
                      ("serve.lat_tail_ms.low", Outcome.ms (windowed_tail low.lat));
                      ("serve.gen_late_ms", Outcome.ms late);
                      ("serve.handle.p50_ms", Outcome.ms handle_p50);
                      ("serve.transport.p50_ms", Outcome.ms (low_p50 -. handle_p50));
                      ("top.canonical.busy_s", Span.busy "top.canonical");
                      ("dsl.parse.busy_s", Span.busy "dsl.parse");
                      ( "top.artifact.hit_s",
                        Util.sum (List.map Span.dur hits) /. float_of_int (max 1 (List.length hits)) );
                      ("gc.minor_words_per_op", words);
                      ("gc.major_collections", majors);
                      ("trace.overhead_ratio", Util.median traced.lat /. low_p50);
                    ]);
              detail =
                common
                @ [ ("lat_tail_percentile", J.Float (tail_percentile low.lat)); ("replayed", J.Int n) ];
            }))
