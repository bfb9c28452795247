(** Memoizing constraint oracle: the one object through which all symbolic
    ordering queries of a net should go.

    {!Constraints.compare_exprs} and friends rebuild the whole
    Fourier–Motzkin system and re-eliminate from scratch on every call —
    the dominant cost of symbolic TRG construction, where the same handful
    of difference expressions is re-decided at every state. The oracle does
    the system-building work once and the elimination work at most once per
    distinct query:

    - {b Preprocessing}: equalities are substituted away (each equality
      defines one variable in terms of the others), the remaining
      inequalities are scaled, deduplicated and joined with the
      non-negativity closure of every time symbol, once.
    - {b Witness filter}: one rational interior point of the feasible
      region is extracted up front; an entailment query whose goal the
      witness already violates is refuted by a single evaluation, with no
      elimination at all.
    - {b Memo table}: verdicts are cached keyed on the canonicalized
      difference form, so re-decisions — the common case in the
      advance-successor tournament — are hash lookups.

    Verdicts agree exactly with the direct {!Constraints} procedures,
    including on inconsistent systems (where everything is vacuously
    entailed). *)

type t

val make : ?memo:bool -> ?witness:bool -> Constraints.t -> t
(** Preprocess a constraint system. [memo] and [witness] (default [true])
    exist so benchmarks can measure each layer's contribution. *)

val compare_exprs : t -> Linexpr.t -> Linexpr.t -> Constraints.comparison
(** Same verdicts as {!Constraints.compare_exprs}. *)

val entails : t -> Constraints.relation -> Linexpr.t -> Linexpr.t -> bool
(** Same verdicts as {!Constraints.entails}. *)

val is_consistent : t -> bool

val witness : t -> (Var.t * Tpan_mathkit.Q.t) list option
(** The interior point found during preprocessing, for inspection. [None]
    when the system is inconsistent. Variables absent from the list were
    assigned their default (see {!make}). *)

(** {1 Statistics}

    Every oracle counts into the process-wide registry
    ({!Tpan_obs.Metrics}) — read them as deltas around the work of
    interest:
    - [symbolic.oracle.queries]: primitive entailment questions asked (a
      comparison asks up to four);
    - [symbolic.oracle.trivial]: answered structurally (constant
      difference), nothing consulted;
    - [symbolic.oracle.memo_hits]/[memo_misses]: memo-table outcomes for
      the non-trivial rest;
    - [symbolic.oracle.witness_refutations]: misses answered by evaluating
      the witness point, avoiding elimination;
    - [symbolic.oracle.fm_runs]: Fourier–Motzkin feasibility checks
      actually executed;
    - [symbolic.oracle.baseline_fm_runs]: checks the direct (uncached)
      procedure would have executed for the same queries — the
      denominator of the speedup claim;
    - [symbolic.oracle.instances]: oracles built. *)
