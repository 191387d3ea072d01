(** Exact optimal assignment by branch-and-bound.

    The client assignment problem is NP-complete (Section III), so this
    is exponential in the worst case and intended for small instances:
    validating that the heuristics are near-optimal, and ground truth in
    tests. The search assigns clients one at a time in decreasing order of
    nearest-server distance (hard clients first), tracks per-server
    eccentricities incrementally, prunes any branch whose partial
    objective already reaches the best complete one, and seeds the
    incumbent with the better of Greedy and Longest-First-Batch so pruning
    bites immediately. Respects capacities. *)

val optimal : ?node_limit:int -> Problem.t -> Assignment.t * float
(** [optimal p] is an optimal assignment and its objective value.

    [node_limit] (default [50_000_000]) bounds the number of search nodes
    explored.

    @raise Failure if the limit is exceeded — the instance is too big for
    exact search. *)

val optimal_value : ?node_limit:int -> Problem.t -> float
(** Objective value only. *)

val optimal_load :
  ?node_limit:int -> delay:Delay.t -> Problem.t -> Assignment.t * float
(** Exact minimiser of [D_load]
    ({!Objective.max_interaction_path} under [delay]) by the same
    branch-and-bound. The partial objective is recomputed at every node
    (each placement changes its server's load, hence its effective
    eccentricity), and remains a valid pruning bound because both
    eccentricity and delay only grow as clients are added. The incumbent
    is seeded with the better of the load-aware Greedy and
    Nearest-Server answers.

    @raise Failure if [node_limit] is exceeded. *)

val optimal_load_value : ?node_limit:int -> delay:Delay.t -> Problem.t -> float
(** [D_load] objective value only. *)
