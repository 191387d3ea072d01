(** Deterministic merged event streams for the control plane.

    A trace is the complete, pre-materialised sequence of external
    events a soak run will face: client churn (joins with bounded
    session lifetimes, so every join carries its own future leave),
    per-server latency drift, and server crash/recovery schedules lifted
    from a {!Dia_sim.Fault} plan. The whole stream is a pure function of
    its generator seeds — all randomness is consumed at construction
    time — so a run's position in the trace is a single integer cursor,
    which is what makes checkpoint/restore trivial and exact. *)

type kind =
  | Join of { session : int; node : int }
      (** a client arrives at [node]; [session] names this arrival so
          the matching [Leave] can reference it whether or not admission
          let it in *)
  | Leave of { session : int }
  | Crash of { server : int }  (** server index, not node id *)
  | Recover of { server : int }
  | Drift of { server : int; factor : float }
      (** latency to/from the server's site rescales to [factor] times
          nominal (replacing any previous factor) *)

type event = { time : float; kind : kind }

type t = event array
(** Sorted by time; ties resolved by generator order (stable merge). *)

val churn :
  seed:int ->
  nodes:int ->
  rate:float ->
  mean_lifetime:float ->
  horizon:float ->
  event list
(** Aggregate Poisson arrivals at [rate] per unit time over
    [\[0, horizon\]]; each join picks a uniform node and an
    exponentially distributed session lifetime with the given mean
    (leaves beyond the horizon are dropped — the client outlives the
    run). Sessions are numbered densely from 0 in arrival order.

    @raise Invalid_argument if [nodes <= 0], [rate <= 0],
    [mean_lifetime <= 0] or [horizon < 0]. *)

val drift_walk :
  seed:int ->
  servers:int ->
  period:float ->
  amplitude:float ->
  horizon:float ->
  event list
(** Every [period], one uniformly chosen server's drift factor is
    redrawn uniformly from [\[1 - amplitude, 1 + amplitude\]] (clamped
    to at least 0.05) — a slow random walk of regional congestion.

    @raise Invalid_argument if [servers <= 0], [period <= 0],
    [amplitude] is outside [\[0, 1\]] or [horizon < 0]. *)

val crashes_of_plan : Dia_sim.Fault.plan -> servers:int -> event list
(** Lift every crash rule whose actor is a server index ([< servers])
    into [Crash]/[Recover] events — the bridge from the fault-injection
    DSL to control-plane chaos. Other rules (loss, duplication, spikes,
    partitions) do not touch the membership layer and are ignored here;
    they still apply to protocol-level repair runs. *)

val merge : horizon:float -> event list list -> t
(** Stable-merge the streams into one trace: sort by time, ties broken
    by stream order then within-stream order, events after [horizon]
    dropped. *)

val to_line : event -> string
(** One-line text form, e.g. [t=0x1.9p+3 join session=3 node=17] for a
    join at time 12.5; floats in exact hexadecimal
    ({!Codec.put_float_hex}), so {!of_line} gives back the identical
    event. *)

val of_line : string -> (event, string) result
(** Inverse of {!to_line} (decimal floats are read too). Malformed or
    truncated input is an [Error]; never raises. *)

val check : servers:int -> nodes:int -> after:float -> event -> (event, string) result
(** [Ok event] when a generated trace over [servers] servers and
    [nodes] nodes could hold [event] right after time [after]; an
    [Error] names a time that is not finite or lies before [after], a
    negative session, a node or server out of range, or a drift factor
    that is not finite and positive. *)
