(* Golden closed forms: the printed delivery throughput of every symbolic
   builtin, pinned by digest. Any change to the arithmetic kernel, the
   polynomial representation or the rate solve must leave these bytes
   alone; a deliberate change to the printed form re-pins them.

   Each model runs in a fresh [tpan symbolic] process: symbols get their
   ids in the order nets create them, and the printed monomial order
   follows those ids, so the bytes are only reproducible from a fixed
   start. The line [throughput(T) = ...] is [Ratfun.pp] of the closed
   form. *)

(* (model, delivery transition, MD5 of the printed closed form, length) *)
let golden =
  [
    ("stopwait-sym", "t7", "b330288072302becad10bf01ca57da76", 315);
    ("abp-sym", "recv_new0", "320ec865613faf1fc1e1af7c85109c15", 56238);
    ("abp-sym", "recv_new1", "320ec865613faf1fc1e1af7c85109c15", 56238);
    ("handshake-sym", "establish", "78f241834098fbba0225cefaa14b83ea", 232);
    ("scheduler-sym", "grab_a", "64931a59c0c634b899376ae8cf0599b8", 36);
    ("scheduler-sym", "grab_b", "83975c8ab5be7f08ad82dd9080e9e51d", 36);
    ("ring-sym", "use_0", "c96579d209462f831249a6c46e7a7130", 51);
  ]

let closed_form_line out transition =
  let prefix = Printf.sprintf "throughput(%s) = " transition in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        Some (String.sub line (String.length prefix) (String.length line - String.length prefix))
      else None)
    (String.split_on_char '\n' out)

let test_closed_forms () =
  let models = List.sort_uniq compare (List.map (fun (m, _, _, _) -> m) golden) in
  List.iter
    (fun model ->
      let pinned = List.filter (fun (m, _, _, _) -> m = model) golden in
      let args =
        String.concat " " (List.map (fun (_, t, _, _) -> "-t " ^ t) pinned)
      in
      let rc, out = Test_cli.run_capture (Printf.sprintf "symbolic --model %s %s" model args) in
      Alcotest.(check int) (model ^ ": exit code") 0 rc;
      List.iter
        (fun (_, transition, digest, len) ->
          let what = model ^ " " ^ transition in
          match closed_form_line out transition with
          | None -> Alcotest.failf "%s: no throughput line" what
          | Some s ->
            Alcotest.(check int) (what ^ " length") len (String.length s);
            Alcotest.(check string) (what ^ " digest") digest (Digest.to_hex (Digest.string s)))
        pinned)
    models

let test_every_symbolic_builtin_pinned () =
  let pinned = List.map (fun (m, t, _, _) -> (m, t)) golden in
  List.iter
    (fun (m : Tpan.Models.t) ->
      if String.ends_with ~suffix:"-sym" m.name then
        List.iter
          (fun t ->
            Alcotest.(check bool) (m.name ^ " " ^ t ^ " is pinned") true (List.mem (m.name, t) pinned))
          m.deliveries)
    Tpan.Models.all

let suite =
  ( "golden",
    [
      Alcotest.test_case "closed forms of the *-sym builtins" `Quick test_closed_forms;
      Alcotest.test_case "every *-sym delivery is pinned" `Quick test_every_symbolic_builtin_pinned;
    ] )
