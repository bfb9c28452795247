(* serve-fresh: a closed loop on one keep-alive connection, every
   request new: fresh points on the symbolic builtins (one on abp-sym
   per block), inline generated nets never sent before, and small
   sweeps, in fixed counts per 16-request block. The server's cache
   budget is small, so the inline nets cause evictions: the run
   measures inserts and evictions where serve-hot measures hits, and
   exact evaluation of large closed forms. The loop runs in slices with
   a host-speed probe between them, and each slice's figures are scaled
   to nominal host speed. Every 200 response is checked against the
   concrete pipeline after the window. *)

module J = Tpan_obs.Jsonv

let cache_budget_mib = 2
(* One connection: the server serves each on a domain of its own, and
   two busy domains meet at every minor collection, so on a shared
   2-vCPU host a descheduled vCPU stalls both (abp-sym points took 80 to
   130 ms from run to run with two connections). *)
let connections = 1
let stall_s = 60.

type done_ = { req : Inputs.req; status : int; body : string; latency : float }

(* The closed loop runs in [slices] equal parts with a host-speed probe
   between them, taken while the server is idle. *)
let slices = 16

(* Each connection sends its next request when its previous one has
   been answered, until [dur] has passed; the answers still owed then
   are awaited and counted too. Returns the answers and the wall time
   until the last of them. *)
let closed_loop ?(traced = false) s conns queue ~next_block ~dur =
  let busy = Array.make connections None in
  let completed = ref [] in
  let start = Util.now () in
  let stop_at = start +. dur in
  let rec next_req () =
    match Queue.take_opt queue with
    | Some q -> q
    | None ->
      Array.iter (fun q -> Queue.add q queue) (next_block ());
      next_req ()
  in
  let in_flight () = Array.exists Option.is_some busy in
  while Util.now () < stop_at || in_flight () do
    Array.iteri
      (fun i c ->
        if busy.(i) = None && Util.now () < stop_at then begin
          let q = next_req () in
          Http.enqueue c (Http.request_bytes ~meth:"POST" ~path:(Inputs.path q) ~body:q.Inputs.body);
          busy.(i) <- Some (q, Util.now ())
        end;
        Http.flush_some c;
        match busy.(i) with
        | None -> ()
        | Some (q, sent) -> (
          Http.fill_some c;
          match Http.take_response c with
          | None -> if Util.now () -. sent > stall_s then Util.fail "no answer to %s in %.0fs" q.Inputs.cls stall_s
          | Some r ->
            let t = Util.now () in
            busy.(i) <- None;
            if traced then
              Span.record
                { Span.id = 0; name = "serve.request"; start = sent; stop = t; parent = 0; op = 0;
                  minor_words = 0. };
            completed :=
              { req = q; status = r.Http.status; body = r.Http.body; latency = t -. sent } :: !completed))
      conns;
    if in_flight () then begin
      Server.check_alive s;
      Http.wait (Array.to_list conns) ~until:(Util.now () +. 0.2)
    end
  done;
  (List.rev !completed, Util.now () -. start)

let check_all results =
  let ok =
    Tpan_par.Pool.map ~jobs:2
      (fun d -> d.status = 200 && Check_resp.correct d.req d.body)
      results
  in
  List.length (List.filter not ok)

(* The work one request makes the server do, a layer at a time: parse
   an inline net, canonicalize, derive what a warm cache would hold,
   evaluate. [forms] keeps closed forms (with their printed size, taken
   when first asked for) by net and transition, as the server's cache
   keeps the builtins'. Returns the sizes of the closed forms
   evaluated. *)
let replay_by_layer forms (q : Inputs.req) =
  let key, tpn =
    match q.Inputs.target with
    | Inputs.Inline src -> (src, Span.span "dsl.parse" (fun () -> Tpan_dsl.Parser.parse_string src))
    | Inputs.Model m ->
      ignore (Span.span "top.canonical" (fun () -> Tpan.Canonical.of_tpn q.Inputs.tpn));
      (m, q.Inputs.tpn)
  in
  let form transition =
    match Hashtbl.find_opt forms (key, transition) with
    | Some f -> f
    | None ->
      let net = { Inputs.label = key; tpn; deliveries = [ transition ] } in
      let e = List.assoc transition (Layers.closed_forms_by_layer net) in
      let f = (e, lazy (String.length (Format.asprintf "%a" Tpan_symbolic.Ratfun.pp e))) in
      Hashtbl.replace forms (key, transition) f;
      f
  in
  let evals =
    match q.Inputs.call with
    | Inputs.Eval { transition; point } -> [ (form transition, point) ]
    | Inputs.Sweep { transitions; bindings; axis } ->
      List.concat_map
        (fun t ->
          List.map
            (fun v -> (form t, (axis.Tpan_perf.Sweep.name, v) :: bindings))
            (Tpan_perf.Sweep.axis_values axis))
        transitions
    | Inputs.Analyze _ -> []
  in
  List.map
    (fun ((e, size), point) ->
      ignore (Layers.eval e point);
      size)
    evals

(* Closed forms of the symbolic builtins, as a server started with
   [--warm] holds them. *)
let warm_forms () =
  let forms = Hashtbl.create 64 in
  List.iter
    (fun name ->
      let n = Inputs.builtin name in
      List.iter
        (fun (d, e) ->
          Hashtbl.replace forms (name, d)
            (e, lazy (String.length (Format.asprintf "%a" Tpan_symbolic.Ratfun.pp e))))
        (Layers.closed_forms n))
    Inputs.sym_models;
  forms

(* Layer replay of [reqs], until [budget] seconds pass or they run out;
   returns how many were replayed, the sizes of the closed forms they
   evaluated and the replay's wall time. *)
let replay reqs ~budget =
  let forms = warm_forms () in
  let start = Util.now () in
  let rec go i acc = function
    | q :: rest when Util.now () -. start < budget ->
      let sizes = Span.op i "request" (fun () -> replay_by_layer forms q) in
      go (i + 1) (List.rev_append sizes acc) rest
    | _ -> (i, acc, Util.now () -. start)
  in
  go 0 [] reqs

let run ~exe ~out ~seed ~seconds ~trace =
  let fresh = Inputs.fresh seed in
  let next_block () = Inputs.fresh_block fresh in
  (* blocks for 20 a second (over twice today's pace) are made before
     the window; beyond that they are made as needed *)
  let queue = Queue.create () in
  for _ = 1 to int_of_float (20. *. Float.ceil seconds) do
    Array.iter (fun q -> Queue.add q queue) (next_block ())
  done;
  let args =
    [ "--warm"; String.concat "," Inputs.sym_models; "--cache-budget"; string_of_int cache_budget_mib ]
  in
  let cpu = Serve_common.placement () and calib = Calib.create () in
  Serve_common.with_server ?cpu ~calib ~exe ~out args (fun s (setup_s, raw_setup_s) ->
      let before = Server.scrape s in
      let dur = if trace then seconds /. 3. else seconds in
      let conns = Array.init connections (fun _ -> Http.connect s.Server.port) in
      let parts =
        Fun.protect
          ~finally:(fun () -> Array.iter Http.close conns)
          (fun () ->
            let parts =
              List.init slices (fun _ ->
                  Calib.mark calib;
                  let t0 = Util.now () and cpu0 = Server.cpu_s s in
                  let results, wall =
                    closed_loop ~traced:trace s conns queue ~next_block ~dur:(dur /. float_of_int slices)
                  in
                  (results, wall, Server.cpu_s s -. cpu0, t0 +. (wall /. 2.)))
            in
            Calib.mark calib;
            parts)
      in
      let results = List.concat_map (fun (r, _, _, _) -> r) parts in
      let after = Server.scrape s in
      let peak = Server.peak_rss_mb s in
      Serve_common.unpin ();
      let failed = check_all results in
      (* each slice's figures scaled by the host speed around it *)
      let figures scale ~setup_s =
        let parts = List.map (fun (r, wall, cpu, mid) -> (r, wall, cpu, scale mid)) parts in
        let n = float_of_int (List.length results) in
        let lat =
          Util.summarize
            (List.concat_map (fun (r, _, _, k) -> List.map (fun d -> k *. d.latency) r) parts)
        in
        [
          ("ops_per_s", n /. Util.sum (List.map (fun (_, wall, _, k) -> k *. wall) parts));
          ("op_p50_ms", Outcome.ms lat.Util.p50);
          ("op_tail_ms", Outcome.ms lat.Util.tail);
          ("cpu_ms_per_op", Outcome.ms (Util.sum (List.map (fun (_, _, cpu, k) -> k *. cpu) parts) /. n));
          ("setup_s", setup_s);
          ("peak_rss_mb", peak);
        ]
      in
      let of_class cls = List.filter (fun d -> d.req.Inputs.cls = cls) results in
      let classes =
        [ "eval.stopwait-sym"; "eval.handshake-sym"; "eval.scheduler-sym"; "eval.ring-sym";
          "eval.abp-sym"; "eval.inline"; "sweep.stopwait-sym"; "sweep.handshake-sym" ]
      in
      let by_class f = J.Obj (List.map (fun c -> (c, f (of_class c))) classes) in
      let detail =
        [
          ("loop", J.Str (Printf.sprintf "closed, %d keep-alive connection(s)" connections));
          ("pinned", J.Bool (cpu <> None));
          ("cache_budget_mib", J.Int cache_budget_mib);
          ("op_tail_percentile", J.Float (Util.tail_percentile (List.length results)));
          ("completed_by_class", by_class (fun l -> J.Int (List.length l)));
          ( "p50_ms_by_class",
            by_class (fun l -> J.Float (Outcome.ms (Util.median (List.map (fun d -> d.latency) l))))
          );
        ]
        @ Outcome.raw calib (figures (fun _ -> 1.) ~setup_s:raw_setup_s)
      in
      let n = List.length results in
      if not trace then
        {
          Outcome.attempted = n;
          failed;
          metrics =
            Outcome.select Outcome.end_to_end (figures (Calib.scale calib) ~setup_s);
          detail;
        }
      else begin
        let reqs = List.map (fun d -> d.req) results in
        let gc0 = Gc.quick_stat () in
        let k, _, plain_wall = replay reqs ~budget:(seconds /. 3.) in
        let gc1 = Gc.quick_stat () in
        Span.enabled := true;
        let _, sizes, traced_wall = replay (List.filteri (fun i _ -> i < k) reqs) ~budget:infinity in
        Span.enabled := false;
        let evals = List.length sizes in
        let eval_busy = Span.busy "perf.eval" in
        {
          Outcome.attempted = n;
          failed;
          metrics =
            Outcome.select Outcome.per_layer
              (Serve_common.cache_metrics before after
              @ [
                  ("core.trg.busy_s", Span.busy "core.trg");
                  ("core.trg.states", float_of_int (Atomic.get Layers.trg_states));
                  ("perf.collapse.busy_s", Span.busy "perf.collapse");
                  ("perf.rates.busy_s", Span.busy "perf.rates");
                  ("perf.rates.minor_words", Span.words "perf.rates");
                  ("perf.throughput.busy_s", Span.busy "perf.throughput");
                  ("perf.eval.busy_s", eval_busy);
                  ("perf.eval.minor_words", Span.words "perf.eval");
                  ( "perf.eval.closed_form_bytes",
                    Util.sum (List.map (fun l -> float_of_int (Lazy.force l)) sizes)
                    /. float_of_int (max 1 evals) );
                  ("perf.eval.share", eval_busy /. Span.busy "request");
                  ("top.canonical.busy_s", Span.busy "top.canonical");
                  ("dsl.parse.busy_s", Span.busy "dsl.parse");
                  ("gc.minor_words_per_op", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 k));
                  ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
                  ("trace.overhead_ratio", traced_wall /. plain_wall);
                ]);
          detail = detail @ [ ("replayed", J.Int k) ];
        }
      end)
