(* Is a 200 response right? Evaluations and every sweep row must equal
   the concrete ℚ pipeline at the same point, exactly. *)

module Q = Tpan_mathkit.Q
module J = Tpan_obs.Jsonv

let q_member k j =
  match J.member k j with
  | Some (J.Str s) -> ( try Some (Q.of_decimal_string s) with _ -> None)
  | _ -> None

let equal_concrete tpn ~transition point value =
  match (value, Layers.concrete tpn ~transition point) with
  | Some v, Some c -> Q.equal v c
  | _ -> false

let correct (q : Inputs.req) body =
  match J.of_string body with
  | Error _ -> false
  | Ok j -> (
    match q.Inputs.call with
    | Inputs.Eval { transition; point } ->
      equal_concrete q.Inputs.tpn ~transition point (q_member "throughput" j)
    | Inputs.Analyze _ -> J.member "kind" j = Some (J.Str "analysis")
    | Inputs.Sweep { transitions; bindings; axis } -> (
      match J.member "rows" j with
      | Some (J.List rows) when List.length rows = axis.Tpan_perf.Sweep.steps ->
        List.for_all
          (fun row ->
            match (J.member "point" row, J.member "values" row) with
            | Some pt, Some values -> (
              match q_member axis.Tpan_perf.Sweep.name pt with
              | None -> false
              | Some x ->
                let point = (axis.Tpan_perf.Sweep.name, x) :: bindings in
                List.for_all
                  (fun t ->
                    equal_concrete q.Inputs.tpn ~transition:t point
                      (q_member (Printf.sprintf "thr(%s)" t) values))
                  transitions)
            | _ -> false)
          rows
      | _ -> false))
