type t = {
  mutable commits : int;
  mutable records_written : int;
  mutable bytes_written : int;
  mutable faults : int;
  mutable recovery_truncations : int;
  mutable truncated_bytes : int;
  mutable compactions : int;
}

let create () =
  {
    commits = 0;
    records_written = 0;
    bytes_written = 0;
    faults = 0;
    recovery_truncations = 0;
    truncated_bytes = 0;
    compactions = 0;
  }

let reset t =
  t.commits <- 0;
  t.records_written <- 0;
  t.bytes_written <- 0;
  t.faults <- 0;
  t.recovery_truncations <- 0;
  t.truncated_bytes <- 0;
  t.compactions <- 0

let fields t =
  [
    "commits", t.commits;
    "records_written", t.records_written;
    "bytes_written", t.bytes_written;
    "faults", t.faults;
    "recovery_truncations", t.recovery_truncations;
    "truncated_bytes", t.truncated_bytes;
    "compactions", t.compactions;
  ]

let register_metrics ?(name = "store") t =
  Tml_obs.Metrics.register_source ~name
    ~snapshot:(fun () -> List.map (fun (k, v) -> (k, Tml_obs.Metrics.I v)) (fields t))
    ~reset:(fun () -> reset t)
