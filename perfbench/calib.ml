(* Host speed.

   The benchmark's machine shares its cores with other tenants, and
   their load changes how fast the same code runs: on a 2-vCPU VM a
   fixed Python loop took anywhere from 13 to 27 ms in 5 s windows over
   four minutes, in swings that last tens of seconds, so neither longer
   runs nor medians average them out, and ten runs of one workload
   spread by a third. The timed end-to-end figures are therefore given
   at a nominal host speed: a reference job written against the standard
   library only (so no change to the program can move it) is timed
   between the operations of a run, and each operation's time is scaled
   by [nominal_s] / (the reference's time around it). The raw figures
   and the host's slowdown go on the record line. *)

module IM = Map.Make (Int)

(* The reference job: persistent-map inserts and lookups, list building
   and sorting, string allocation and hashing — the allocation and
   pointer-chasing mix of the program's symbolic code. *)
let job () =
  let m = ref IM.empty and acc = ref 0 in
  for i = 1 to 3000 do
    let k = i * 7919 land 4095 in
    m := IM.add k (i, string_of_int i) !m;
    match IM.find_opt (k * 31 land 4095) !m with
    | Some (j, s) -> acc := !acc + j + Hashtbl.hash s
    | None -> ()
  done;
  let l = IM.fold (fun k (v, _) l -> (k lxor v) :: l) !m [] in
  List.fold_left ( + ) !acc (List.sort compare l)

(* A fixed constant; only ratios to it matter. It is about the job's
   usual time on the 2-vCPU Xeon VM the benchmark was tuned on, so
   scaled figures read about like raw ones on that machine. *)
let nominal_s = 0.002

(* One job to warm the caches, then the median of five. *)
let probe () =
  let one () =
    let t0 = Util.now () in
    ignore (Sys.opaque_identity (job ()));
    Util.now () -. t0
  in
  ignore (one ());
  Util.median (List.init 5 (fun _ -> one ()))

(* The probes of a run, newest first: (when, reference seconds). Probes
   run on one domain: with a second domain each minor collection becomes
   a stop-the-world rendezvous, and the probe reads 2.5-3x slower, timing
   that instead of the host. *)
type t = { mutable marks : (float * float) list }

let create () = { marks = [] }
let mark t = t.marks <- (Util.now (), probe ()) :: t.marks

(* Scale to nominal speed for work that started at [t0]: [nominal_s]
   over the median reference time of the probes within [window] seconds
   of it, or of the nearest probe when none is that close (long slices
   of a long run). *)
let window = 1.0

let scale t t0 =
  let near = List.filter (fun (w, _) -> Float.abs (w -. t0) <= window) t.marks in
  let near =
    match (near, t.marks) with
    | [], m :: ms ->
      let dist (w, _) = Float.abs (w -. t0) in
      [ List.fold_left (fun a b -> if dist b < dist a then b else a) m ms ]
    | _ -> near
  in
  match near with [] -> 1. | _ -> nominal_s /. Util.median (List.map snd near)

(* [x] seconds of work that started at [t0], at nominal speed. *)
let at_nominal t t0 x = x *. scale t t0

(* [f ()]'s wall time at nominal speed and raw, with a probe on each
   side. *)
let timed t f =
  mark t;
  let t0 = Util.now () in
  f ();
  let dt = Util.now () -. t0 in
  mark t;
  (at_nominal t t0 dt, dt)

(* How much slower than nominal the host ran over the run (the median
   probe over [nominal_s]), for the record line. *)
let slowdown t = Util.median (List.map snd t.marks) /. nominal_s
