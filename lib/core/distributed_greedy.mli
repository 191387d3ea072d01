(** Distributed-Greedy Assignment (Section IV-D).

    Starts from Nearest-Server Assignment and repeatedly reassigns a
    client involved in a longest interaction path to the server that
    minimises the resulting maximum path length involving that client,
    committing a move only when it strictly reduces the global objective
    [D]. Terminates when no client on any longest path can improve [D]
    (moves are examined one at a time, modelling the paper's concurrency
    control that serialises modifications).

    Although conceptually a protocol run by the servers themselves, the
    computation here is sequential; {!stats} reports the communication the
    protocol would have used (broadcasts, per-server probe measurements),
    and {!trace} records [D] after every committed modification — the data
    behind the paper's Fig. 9. The simulated message-level version of the
    protocol lives in [Dia_sim.Dgreedy_protocol].

    Capacitated variant (Section IV-E): clients may only move to
    unsaturated servers and the initial assignment is the capacitated
    Nearest-Server Assignment. *)

type stats = {
  modifications : int;  (** committed reassignments *)
  examined : int;  (** candidate clients examined (incl. rejected) *)
  broadcasts : int;
      (** server-to-all-servers messages: initial distance/eccentricity
          exchange, per-candidate announcements, post-move updates *)
  probes : int;
      (** client-to-server latency measurements performed on demand *)
}

type result = {
  assignment : Assignment.t;
  initial : Assignment.t;  (** the Nearest-Server starting point *)
  trace : float array;
      (** [trace.(0)] is the initial [D]; [trace.(i)] the objective after
          the [i]-th committed modification — strictly decreasing *)
  stats : stats;
}

val run : ?initial:Assignment.t -> ?delay:Delay.t -> Problem.t -> result
(** Run to convergence. [initial] overrides the Nearest-Server starting
    point (it must respect the instance's capacity).

    With [delay] the same loop runs on the [D_load] objective (each hop
    pays its server's load-dependent delay — see
    {!Objective.max_interaction_path}): the starting point is
    [Nearest.assign ~delay], longest paths are found through the
    effective eccentricities [l(s) + delay(load s)], and the trace
    records [D_load]. The one delay-dependent step is how a target is
    scored: a move changes the loads of both endpoint servers, so
    targets are judged by the full trial objective instead of the local
    {!Ecc.attach} estimate. Every committed move still strictly improves
    the objective, so the protocol terminates.

    @raise Invalid_argument if [initial] is invalid or violates
    capacity, or if [delay] fails {!Delay.validate}. *)

val assign : ?delay:Delay.t -> Problem.t -> Assignment.t
(** [run] and keep only the final assignment. *)
