(* The traced run's recorder. Spans are taken from the benchmark's own
   code, around calls into each layer's public functions: name, start,
   end, parent span and operation id, kept in memory (safe across pool
   domains) and written out as NDJSON when the run ends. With tracing
   off, [span] is a plain call. *)

module J = Tpan_obs.Jsonv

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;
  op : int;
  minor_words : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 1
let parent_key = Domain.DLS.new_key (fun () -> 0)
let op_key = Domain.DLS.new_key (fun () -> 0)

let record s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

let span name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Domain.DLS.get parent_key in
    Domain.DLS.set parent_key id;
    let w0 = Gc.minor_words () in
    let start = Util.now () in
    let finish () =
      let stop = Util.now () in
      Domain.DLS.set parent_key parent;
      record
        {
          id;
          name;
          start;
          stop;
          parent;
          op = Domain.DLS.get op_key;
          minor_words = Gc.minor_words () -. w0;
        }
    in
    Fun.protect ~finally:finish f
  end

(* One benchmark operation: its spans (and those of its children) carry
   [op] as their operation id. *)
let op op name f =
  if not !enabled then f ()
  else begin
    let saved = Domain.DLS.get op_key in
    Domain.DLS.set op_key op;
    Fun.protect ~finally:(fun () -> Domain.DLS.set op_key saved) (fun () -> span name f)
  end

let all () =
  Mutex.lock lock;
  let l = !recorded in
  Mutex.unlock lock;
  List.rev l

let named name = List.filter (fun s -> s.name = name) (all ())
let dur s = s.stop -. s.start
let busy name = Util.sum (List.map dur (named name))
let words name = Util.sum (List.map (fun s -> s.minor_words) (named name))

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("id", J.Int s.id);
                    ("name", J.Str s.name);
                    ("start", J.Float s.start);
                    ("end", J.Float s.stop);
                    ("parent", J.Int s.parent);
                    ("op", J.Int s.op);
                    ("minor_words", J.Float s.minor_words);
                  ]));
          output_char oc '\n')
        (all ()))
