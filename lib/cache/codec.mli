(** JSON codecs for the cacheable symbolic values.

    Persistence never marshals: a closed-form expression written by one
    process is decoded structurally by the next, which re-interns every
    symbol through {!Tpan_symbolic.Var} — so the integer variable ids
    inside decoded polynomials are always this process's ids and decoded
    expressions compose safely with freshly-built ones.

    Encoding is exact: coefficients render through
    {!Tpan_mathkit.Q.to_string} (["a/b"] or an integer) and parse back
    with no rounding. *)

val q_to_json : Tpan_mathkit.Q.t -> Tpan_obs.Jsonv.t
val q_of_json : Tpan_obs.Jsonv.t -> Tpan_mathkit.Q.t option

val var_of_name : string -> Tpan_symbolic.Var.t
(** Re-intern a variable from its display name: ["E(x)"], ["F(x)"],
    ["f(x)"] map to the enabling/firing/frequency symbol of label [x];
    anything else is a [Param]. Inverse of {!Tpan_symbolic.Var.name}. *)

val poly_to_json : Tpan_symbolic.Poly.t -> Tpan_obs.Jsonv.t
(** A list of monomials [{"c": "3/4", "m": [["E(t3)", 2], …]}]. *)

val poly_of_json : Tpan_obs.Jsonv.t -> Tpan_symbolic.Poly.t option

val ratfun_to_json : Tpan_symbolic.Ratfun.t -> Tpan_obs.Jsonv.t
(** [{"num": <poly>, "den": <poly>}]. *)

val ratfun_of_json : Tpan_obs.Jsonv.t -> Tpan_symbolic.Ratfun.t option
