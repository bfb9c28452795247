(** The machine-document envelope: every [tpan ... --json] document and
    every [tpan serve] response body is one JSON object

    {[ {"schema": 2, "kind": …, "trace_id": …, "net_hash": …, "exit_code": …, …payload} ]}

    [trace_id] is the ambient {!Tpan_obs.Context} trace id; [net_hash]
    the {!Canonical.hash} of the net the document describes. Payload
    fields come from one encoder per operation ({!Analysis.report_fields},
    {!Tpan_perf.Sweep.fields}, {!Tpan_check.Check.outcome_fields},
    {!Artifact.sim_summary_fields}), shared by the CLI and the service. *)

val envelope :
  kind:string ->
  ?net_hash:string ->
  ?exit_code:int ->
  (string * Tpan_obs.Jsonv.t) list ->
  Tpan_obs.Jsonv.t
(** [exit_code] defaults to [0]; a missing [net_hash] renders as [null]. *)
