(* Shared helpers: clock, order statistics, seed mixing, /proc reads. *)

let now = Unix.gettimeofday

exception Bench_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt

(* ----- order statistics ----- *)

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = percentile (sorted_of_list l) 50.

(* The highest percentile that still has at least ten samples beyond
   it, from a fixed ladder, so the tail figure is never one or two
   outliers. *)
let tail_percentile n =
  let ladder = [ 99.9; 99.; 95.; 90.; 75. ] in
  match List.find_opt (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.) ladder with
  | Some p -> p
  | None -> 50.

type summary = { p50 : float; tail_p : float; tail : float }

let summarize samples =
  let a = sorted_of_list samples in
  let tail_p = tail_percentile (Array.length a) in
  { p50 = percentile a 50.; tail_p; tail = percentile a tail_p }

let sum = List.fold_left ( +. ) 0.

(* ----- seeded inputs -----

   SplitMix64 finalizer: the benchmark derives every input seed from
   its own [--seed] through this function, independently of the
   program's RNGs. *)
let mix a b =
  let open Int64 in
  let z = ref (add (mul (of_int a) 0x9E3779B97F4A7C15L) (of_int b)) in
  z := mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL;
  z := logxor !z (shift_right_logical !z 31);
  to_int (logand !z 0x3FFFFFFFL)

(* A tiny deterministic stream for shuffles and choices. *)
type rng = { seed : int; mutable k : int }

let rng seed = { seed; k = 0 }

let next r =
  r.k <- r.k + 1;
  mix r.seed r.k

let below r n = next r mod n

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ----- process facts ----- *)

(* A [Vm...] field of /proc/<pid>/status in MiB, or [nan]. *)
let proc_status_mb pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        let prefix = field ^ ":" in
        if String.length line > String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
        then
          let rest = String.sub line (String.length prefix) (String.length line - String.length prefix) in
          Scanf.sscanf (String.trim rest) "%d kB" (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let self_peak_rss_mb () = proc_status_mb "self" "VmHWM"

(* Peak RSS (MiB) of a fresh run of this program with [args], which
   prints that figure as its only output line. In-process workloads take
   their memory figure this way: within one process it would depend on
   history, since the heap never shrinks and a run's peak follows the
   heaviest input it has met so far. *)
let child_peak_rss_mb args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "memory run %s failed" (String.concat " " args));
  match float_of_string_opt line with
  | Some v -> v
  | None -> fail "memory run %s printed %S" (String.concat " " args) line

(* User + system CPU seconds of this process, all its domains. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
