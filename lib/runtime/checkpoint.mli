(** Versioned, deterministic on-disk snapshots of the full controller
    state.

    A checkpoint captures {e everything} the soak loop needs to continue
    as if it had never stopped: the trace cursor (the event stream is a
    pure function of the scenario, so a single integer is the whole
    stream position), the assignment session (membership, failures,
    drift factors, counters, id cursor), the session↔client mapping, the
    SLO state machine, the admission queue and counters, the repair
    bookkeeping (including the sub-seed cursor for protocol-level repair
    epochs — the "RNG cursor"), and the accumulated objective trace and
    event log. A run killed at a checkpoint boundary and resumed from
    that checkpoint produces a final report bit-identical to the
    uninterrupted run.

    The format is a line-oriented, versioned text file. Floats are
    printed with {!Codec.float_str}, which round-trips exactly. This
    module only encodes and decodes: every write goes through
    {!Generation.save} and the {!Disk} injector (temp file + rename), so
    a kill {e during} a checkpoint write leaves the previous generation
    intact. A [scenario] digest guards against resuming under a
    different configuration.

    {b Versioning.} Format v3 is the only one that decodes. Over the
    earlier formats (v2 added the standby map ([standby=] lines) and the
    offline-baseline samples ([baseline=] lines) to v1) it adds
    per-section integrity: a [crc=SECTION:HEX] line (CRC-32 of the
    section's lines, in file order) for the scalar block and each list
    kind — written even for empty sections, so wholesale deletion is
    detected — plus a strict truncation guard (the file must end with
    exactly the [end] marker). A v1 or v2 header is refused with an
    [Error] naming line 1: those files carry no checksums, so nothing
    in them could be trusted. {!encode} always writes the current
    version.

    {b Hardening.} {!decode} never raises and never yields a partial
    state: any corrupted, truncated or garbage input — including every
    single-bit flip and every proper truncation of a v3 file, which the
    qcheck mutation fuzzer pins — comes back as [Error] naming the
    failing section and, where one exists, the line position. *)

val version : int

type state = {
  version : int;
      (** format version; always {!version} for a decoded file *)
  digest : string;  (** hex digest of the scenario/config, from the soak *)
  cursor : int;  (** next trace event index *)
  now : float;  (** trace time of the last processed event *)
  (* session *)
  capacity : int option;
  members : (int * int * int) list;  (** (client id, node, server) *)
  standbys : (int * int) list;  (** (client id, standby server) *)
  next_id : int;
  failed : int list;
  drift : (int * float) list;  (** (server, factor), only factors <> 1 *)
  session_stats : Dia_core.Dynamic.stats;
  sessions : (int * int) list;  (** trace session -> live client id *)
  (* controller *)
  slo : string;  (** {!Slo.encode} *)
  queue : (int * int) list;
  admitted : int;
  queued : int;
  shed : int;
  drained : int;
  abandoned : int;
  leaves : int;
  crashes : int;
  crashes_skipped : int;
  recoveries : int;
  drifts : int;
  stranded : int;
  repairs : int;
  repair_moves : int;
  max_epoch_moves : int;
  protocol_epochs : int;
  protocol_stalls : int;
  rng_cursor : int;
  lb : float;  (** last computed lower bound *)
  events_since_lb : int;
  checkpoints : int;
  trace_points : (float * float * float) list;
      (** (time, objective, ratio), oldest first *)
  baseline_points : (float * float * float) list;
      (** (time, online objective, offline re-solve objective) samples
          for the competitive-ratio harness, oldest first; [] unless the
          soak ran with [offline_baseline] *)
  log : Event_log.entry list;  (** oldest first *)
}

val encode : state -> string
(** The file text of a state. Its bytes are stable: the same state
    always encodes to the same text, and every generation ever written
    is byte-identical to what {!encode_reference} makes of its state.
    One linear pass writes each line with the {!Codec} writers straight
    into a single file image and takes each section's CRC over its byte
    range: on a 150k-session state it runs about three times faster than
    {!encode_reference}, and CI fails below twice. *)

val encode_reference : state -> string
(** The executable spec of {!encode}: one [Printf] call per line into a
    buffer per section, each section copied out for its CRC. A qcheck
    property pins [encode st = encode_reference st] byte for byte, and
    the speedup gate times the two against each other. *)

val decode : string -> (state, string) result
(** [decode (encode s) = Ok s] bit-exactly for current-version states.
    Every other header — older or unknown versions alike — is rejected.
    Input is verified section-by-section against its [crc=] lines
    before any field is trusted. Never raises. *)

val load : string -> (state, string) result
(** Read and {!decode} a checkpoint file; I/O errors come back as
    [Error]. *)
