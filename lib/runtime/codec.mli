(** Exact textual encoding helpers shared by the checkpoint format and
    the event log.

    Everything the control plane persists must survive a
    serialize/parse cycle {e bit-identically} — resume correctness is
    proved by comparing whole reports for equality, so a float that
    comes back off by one ulp is a determinism bug. These helpers
    guarantee exact round trips while staying human-readable. *)

val float_str : float -> string
(** Shortest of [%g]/[%.12g]/[%.17g] that parses back to the identical
    double; [inf], [-inf] and [nan] spelled so {!float_of_str} accepts
    them. *)

val float_of_str : string -> float
(** Inverse of {!float_str}.

    @raise Failure on malformed input. *)

val put_string : Bytes.t -> int -> string -> int
(** [put_string b pos s] writes [s] into [b] (which must have room) at
    [pos] and returns the end position, as do the other [put_*]. *)

val put_int : Bytes.t -> int -> int -> int
(** The decimal text of an int ([%d]), at most 20 bytes. *)

val put_float_hex : Bytes.t -> int -> float -> int
(** The exact hexadecimal text of a float, the bytes of
    [Printf.sprintf "%h"] ([0x1.9p+3] for [12.5]), at most 24 bytes.
    {!float_of_str} reads it back bit for bit, and it costs a small
    fraction of {!float_str} on values needing all 17 digits. *)

val escape : string -> string
(** Newlines and backslashes escaped so any string fits on one
    key=value line. *)

val unescape : string -> string
(** Inverse of {!escape}. *)
