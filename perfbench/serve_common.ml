(* What the two serving workloads share: where they run, a
   median-of-five server start and cache counters scraped around the
   timed window. *)

(* Where the generator and the server run. With two CPUs or more, this
   process and the server are both pinned to CPU 1: the closed loops and
   the host-speed probes then run on the one CPU that does the work, and
   no answer waits for the host to wake a halted virtual CPU. Open-loop
   phases move this process to CPU 0 ([apart]), so the generator keeps
   its schedule while the server works. Returns the server's CPU when
   pinned. *)
let placement () =
  if Domain.recommended_domain_count () >= 2 && Server.pin_self "1" then Some 1 else None

let apart cpu f =
  match cpu with
  | None -> f ()
  | Some c ->
    ignore (Server.pin_self "0");
    Fun.protect ~finally:(fun () -> ignore (Server.pin_self (string_of_int c))) f

(* Every CPU again, for work after the timed window. *)
let unpin () =
  ignore (Server.pin_self (Printf.sprintf "0-%d" (Domain.recommended_domain_count () - 1)))

(* Start the server five times (keeping the last); set-up time is the
   median spawn-to-ready time, at nominal host speed (probed through
   [calib]) and raw. *)
let start ?cpu ~calib ~exe ~out extra =
  let log = Filename.concat out "server.log" in
  let rec go k acc =
    Calib.mark calib;
    let t0 = Util.now () in
    let s, dt = Server.spawn ?cpu ~exe ~log extra in
    Calib.mark calib;
    let acc = (Calib.at_nominal calib t0 dt, dt) :: acc in
    if k = 1 then (s, (Util.median (List.map fst acc), Util.median (List.map snd acc)))
    else begin
      Server.stop s;
      go (k - 1) acc
    end
  in
  go 5 []

(* Keep-alive connections live for the whole run: the server's default
   cap of 1000 requests per connection is lifted. *)
let with_server ?cpu ~calib ~exe ~out extra f =
  let s, setup_s = start ?cpu ~calib ~exe ~out ("--max-requests-per-conn" :: "0" :: extra) in
  Fun.protect ~finally:(fun () -> Server.stop s) (fun () -> f s setup_s)

let kinds = [ "symbolic"; "closed_form"; "eval"; "report" ]

(* Cache hit ratios, evictions, errors and sheds between two scrapes. *)
let cache_metrics before after =
  let d name = Server.counter after name -. Server.counter before name in
  let ratio kind =
    let h = d (Printf.sprintf "tpan_cache_%s_hits_total" kind)
    and m = d (Printf.sprintf "tpan_cache_%s_misses_total" kind) in
    if h +. m > 0. then h /. (h +. m) else 0.
  in
  List.map (fun k -> (Printf.sprintf "cache.%s.hit_ratio" k, ratio k)) kinds
  @ [
      ( "cache.evictions",
        Util.sum
          (List.map (fun k -> d (Printf.sprintf "tpan_cache_%s_evictions_total" k)) ("trg" :: kinds)) );
      ("serve.errors", d "tpan_serve_errors_total");
      ("serve.shed", d "tpan_serve_admission_rejected_total");
    ]
