(* A keep-alive HTTP/1.1 client over raw sockets, with pipelining: the
   open-loop generator queues requests on a connection as they fall due
   and takes responses off it in order. Every wait is bounded, so a
   stalled server fails the run instead of hanging it. *)

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rstart : int;
  mutable rend : int;
  out : Buffer.t;  (** bytes queued but not yet written *)
  mutable out_pos : int;
}

type response = { status : int; body : string }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  { fd; rbuf = Bytes.create 65536; rstart = 0; rend = 0; out = Buffer.create 65536; out_pos = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let request_bytes ~meth ~path ~body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    meth path (String.length body) body

let enqueue c bytes = Buffer.add_string c.out bytes
let pending_out c = Buffer.length c.out - c.out_pos

(* Write what the socket takes now; never blocks. *)
let flush_some c =
  let len = pending_out c in
  if len > 0 then begin
    match Unix.write_substring c.fd (Buffer.contents c.out) c.out_pos len with
    | n ->
      c.out_pos <- c.out_pos + n;
      if c.out_pos = Buffer.length c.out then begin
        Buffer.clear c.out;
        c.out_pos <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> Util.fail "write to server: %s" (Unix.error_message e)
  end

(* Read what the socket has now; never blocks. *)
let fill_some c =
  if Bytes.length c.rbuf - c.rend < 16384 then begin
    (* move the unread bytes to the front, growing only when they
       fill most of the buffer *)
    let live = c.rend - c.rstart in
    let nb =
      if live + 16384 <= Bytes.length c.rbuf then c.rbuf
      else Bytes.create (2 * Bytes.length c.rbuf)
    in
    Bytes.blit c.rbuf c.rstart nb 0 live;
    c.rbuf <- nb;
    c.rstart <- 0;
    c.rend <- live
  end;
  match Unix.read c.fd c.rbuf c.rend (Bytes.length c.rbuf - c.rend) with
  | 0 -> Util.fail "server closed the connection"
  | n -> c.rend <- c.rend + n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> Util.fail "read from server: %s" (Unix.error_message e)

let find_sub buf start stop pat =
  let m = String.length pat in
  let rec matches i j = j = m || (Bytes.get buf (i + j) = pat.[j] && matches i (j + 1)) in
  let rec go i = if i + m > stop then -1 else if matches i 0 then i else go (i + 1) in
  go start

let lowercase_prefix s p =
  String.length s >= String.length p
  && String.lowercase_ascii (String.sub s 0 (String.length p)) = p

(* Take one complete response off the read buffer, if there is one. *)
let take_response c =
  let hdr_end = find_sub c.rbuf c.rstart c.rend "\r\n\r\n" in
  if hdr_end < 0 then None
  else
    let head = Bytes.sub_string c.rbuf c.rstart (hdr_end - c.rstart) in
    let lines = String.split_on_char '\n' head |> List.map String.trim in
    let status =
      match lines with
      | first :: _ -> (
        match String.split_on_char ' ' first with
        | _ :: code :: _ -> (
          match int_of_string_opt code with Some s -> s | None -> Util.fail "bad status line %S" first)
        | _ -> Util.fail "bad status line %S" first)
      | [] -> Util.fail "empty response head"
    in
    let clen =
      List.fold_left
        (fun acc l ->
          if lowercase_prefix l "content-length:" then
            int_of_string (String.trim (String.sub l 15 (String.length l - 15)))
          else acc)
        0 lines
    in
    let body_start = hdr_end + 4 in
    if c.rend - body_start < clen then None
    else begin
      let body = Bytes.sub_string c.rbuf body_start clen in
      c.rstart <- body_start + clen;
      Some { status; body }
    end

(* Wait until some connection is readable (or writable, for those with
   queued bytes) or [until] passes. *)
let wait conns ~until =
  let timeout = until -. Util.now () in
  if timeout > 0. then begin
    let rd = List.map (fun c -> c.fd) conns in
    let wr = List.filter_map (fun c -> if pending_out c > 0 then Some c.fd else None) conns in
    match Unix.select rd wr [] timeout with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  end

(* One request, one response, on a keep-alive connection: the closed
   loop's primitive. Fails after [timeout] seconds. *)
let call ?(timeout = 60.) c ~meth ~path ~body =
  enqueue c (request_bytes ~meth ~path ~body);
  let deadline = Util.now () +. timeout in
  let rec loop () =
    flush_some c;
    match take_response c with
    | Some r -> r
    | None ->
      if Util.now () > deadline then Util.fail "no response to %s %s within %.0fs" meth path timeout;
      wait [ c ] ~until:(min deadline (Util.now () +. 0.5));
      fill_some c;
      loop ()
  in
  loop ()

(* The envelope's trace id differs per request; everything else in a
   cached response must repeat byte for byte. *)
let strip_trace_id body =
  let n = String.length body in
  match find_sub (Bytes.unsafe_of_string body) 0 n "\"trace_id\":" with
  | -1 -> body
  | i ->
    let stop = match String.index_from_opt body i '\n' with Some j -> j | None -> n in
    String.sub body 0 i ^ String.sub body stop (n - stop)
