(* Lifecycle of the [tpan serve] child: spawn, wait for its "listening
   on" line, scrape /metrics, read its peak RSS, stop it with SIGTERM
   and reap it. A server that dies or stalls fails the run with an
   error rather than hanging it. *)

type t = {
  pid : int;
  port : int;
  out : Unix.file_descr;  (** the child's stdout, kept open until [stop] *)
  mutable reaped : bool;
}

let ready_timeout = 120.

let read_ready_line fd ~pid =
  let buf = Buffer.create 128 in
  let chunk = Bytes.create 256 in
  let deadline = Util.now () +. ready_timeout in
  let rec loop () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> String.sub (Buffer.contents buf) 0 i
    | None ->
      let left = deadline -. Util.now () in
      if left <= 0. then Util.fail "server pid %d not ready after %.0fs" pid ready_timeout;
      (match Unix.select [ fd ] [] [] left with
      | [], _, _ -> ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Util.fail "server exited before announcing its port"
        | n -> Buffer.add_subbytes buf chunk 0 n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
  in
  loop ()

let port_of_line line =
  let marker = "listening on http://" in
  let m = String.length marker and n = String.length line in
  let rec find i =
    if i + m > n then Util.fail "unexpected server announcement %S" line
    else if String.sub line i m = marker then i + m
    else find (i + 1)
  in
  let rest = String.sub line (find 0) (n - find 0) in
  match String.rindex_opt rest ':' with
  | Some i -> (
    match int_of_string_opt (String.sub rest (i + 1) (String.length rest - i - 1)) with
    | Some p -> p
    | None -> Util.fail "no port in %S" line)
  | None -> Util.fail "no port in %S" line

(* Spawn [exe serve --port 0 --workers 1 --no-ledger extra...], under
   [taskset -c cpu] when [cpu] is given; returns the server and the
   seconds from spawn to its ready line. *)
let spawn ?cpu ~exe ~log extra =
  let pin = match cpu with Some c -> [ "taskset"; "-c"; string_of_int c ] | None -> [] in
  let argv =
    Array.of_list
      (pin @ [ exe; "serve"; "--port"; "0"; "--workers"; "1"; "--no-ledger" ] @ extra)
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let t0 = Util.now () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin w err in
  Unix.close w;
  Unix.close err;
  let line =
    try read_ready_line r ~pid
    with e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      Unix.close r;
      raise e
  in
  let setup = Util.now () -. t0 in
  ({ pid; port = port_of_line line; out = r; reaped = false }, setup)

let check_alive s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> ()
  | _, status ->
    s.reaped <- true;
    let how =
      match status with
      | Unix.WEXITED c -> Printf.sprintf "exit %d" c
      | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
      | Unix.WSTOPPED n -> Printf.sprintf "stop %d" n
    in
    Util.fail "server pid %d died (%s)" s.pid how

(* User + system CPU seconds the server has used so far (clock ticks of
   1/100 s, the Linux USER_HZ). *)
let cpu_s s =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" s.pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* fields after the parenthesised command name; utime and stime are
     the 12th and 13th of them *)
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_string (f.(11)) /. 100. +. float_of_string (f.(12)) /. 100.

let peak_rss_mb s = Util.proc_status_mb (string_of_int s.pid) "VmHWM"

(* SIGTERM, then wait up to 10s for a clean exit before SIGKILL. *)
let stop s =
  if not s.reaped then begin
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Util.now () +. 10. in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.01;
        reap ()
      | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ();
    s.reaped <- true;
    (try Unix.close s.out with Unix.Unix_error _ -> ())
  end

(* Counters from the OpenMetrics text, by sample name. *)
let scrape s =
  check_alive s;
  let c = Http.connect s.port in
  Fun.protect
    ~finally:(fun () -> Http.close c)
    (fun () ->
      let r = Http.call ~timeout:30. c ~meth:"GET" ~path:"/metrics" ~body:"" in
      if r.Http.status <> 200 then Util.fail "/metrics answered %d" r.Http.status;
      List.filter_map
        (fun line ->
          if line = "" || line.[0] = '#' then None
          else
            match String.split_on_char ' ' line with
            | [ name; v ] -> Option.map (fun f -> (name, f)) (float_of_string_opt v)
            | _ -> None)
        (String.split_on_char '\n' r.Http.body))

let counter metrics name = Option.value ~default:0. (List.assoc_opt name metrics)

(* Pin this process's main thread, and the threads it starts later, to
   the CPU list [cpus] (through [taskset -p]); false when that cannot be
   done. *)
let pin_self cpus =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () ->
      match
        Unix.create_process "taskset"
          [| "taskset"; "-p"; "-c"; cpus; string_of_int (Unix.getpid ()) |]
          Unix.stdin devnull devnull
      with
      | pid -> ( match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false)
      | exception Unix.Unix_error _ -> false)
