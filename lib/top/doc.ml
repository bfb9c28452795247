module J = Tpan_obs.Jsonv

let envelope ~kind ?net_hash ?(exit_code = 0) fields =
  let str_or_null = function Some s -> J.Str s | None -> J.Null in
  J.Obj
    (("schema", J.Int 2)
    :: ("kind", J.Str kind)
    :: ("trace_id", str_or_null (Tpan_obs.Context.trace_id ()))
    :: ("net_hash", str_or_null net_hash)
    :: ("exit_code", J.Int exit_code)
    :: fields)
