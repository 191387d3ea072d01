(** Greedy Assignment (Section IV-C, pseudocode of Fig. 6).

    Starts from the empty assignment. Each iteration evaluates every
    (unassigned client [c], server [s]) pair: assigning [c] to [s] would
    also batch onto [s] every unassigned client at most as far from [s],
    giving [Δn] new assignments and increasing the maximum
    interaction-path length by [Δl]. The pair minimising the amortised
    cost [Δl / Δn] wins and its batch is committed. Repeats until all
    clients are assigned.

    As in the paper, each server keeps its clients in a list sorted by
    distance ([Ls]) with per-client indices counting unassigned
    predecessors, so [Δn] is an O(1) lookup and the index tables are
    rebuilt in O(|S| |C|) per iteration; total complexity
    O(|S||C| log |C| + m |S||C|) for [m] iterations.

    Capacitated variant (Section IV-E): only unsaturated servers are
    considered, and a candidate pair [(c, s)] is only admissible when its
    whole batch fits in [s]'s remaining capacity (equivalently, [Δn] is
    capped by remaining capacity — candidate batches never overflow, and
    the nearest unassigned client to an unsaturated server is always
    admissible, so the algorithm always progresses).

    With a delay model (the objective extended to [D_load], see
    {!Objective.max_interaction_path}) the same loop runs on the
    load-aware objective: a candidate batch also pays the marginal delay
    it inflicts — the target's effective eccentricity becomes
    [max(l(s), d) + delay(load s + Δn)] — while every other used server
    keeps [l(s') + delay(load s')]. The delay is read from a table
    precomputed per load, so the cost per iteration is the same
    O(|S| |C|) with or without a model, and at zero delay the length
    formula is exactly the paper's. *)

val assign : ?delay:Delay.t -> Problem.t -> Assignment.t
(** Runs the capacitated variant automatically when the instance has a
    capacity; minimises [D_load] under [delay] (default: none, the
    paper's [D]).

    @raise Invalid_argument if [delay] fails {!Delay.validate}. *)

val assign_load : delay:Delay.t -> Problem.t -> Assignment.t
(** [assign_load ~delay p] is [assign ~delay p]. *)

val assign_reference : ?delay:Delay.t -> Problem.t -> Assignment.t
(** Textbook implementation without the sorted-list/index bookkeeping:
    every iteration recomputes Δn by scanning all unassigned clients per
    candidate pair. Asymptotically O(|S||C|²) per iteration instead of
    O(|S||C|); produces the same assignment as {!assign} under the same
    [delay] on tie-free data (exact distance ties may batch in a
    different order) — kept as the correctness oracle for both
    objectives and as the [greedy_impl] ablation baseline. *)
