(** Nearest-Server Assignment (Section IV-A).

    Assigns every client to its closest server. This is the intuitive
    baseline; the paper proves it is a (tight) 3-approximation under the
    triangle inequality and shows experimentally that it is the worst of
    the four heuristics on real latency data (which violate the triangle
    inequality, so the ratio 3 does not even apply).

    Under a capacity limit each client tries its servers in increasing
    distance order until it finds one with room (Section IV-E); clients
    are processed in index order, which models their arrival order.

    Under a delay model each arriving client instead joins the feasible
    server minimising its marginal hop cost [d(c,s) + delay(load s + 1)]
    — the delay its own join inflicts. Without a model that cost is the
    distance, so both variants above are the zero-delay case of the one
    arrival-order loop. *)

val assign :
  ?index:Dia_latency.Landmark.t -> ?delay:Delay.t -> Problem.t -> Assignment.t
(** Capacity-respecting; ties break to the lowest server index.
    O(|C| |S|).

    [index] — a {!Dia_latency.Landmark} index built over this problem's
    matrix with the server nodes as candidates — prunes the per-client
    scan when the instance has no capacity and there is no [delay]. The
    assignment is bit-identical with or without it (the index skips only
    provably losing candidates, and falls back to the exhaustive scan on
    non-metric instances); otherwise it is ignored. Raises
    [Invalid_argument] if a used index does not match the instance, or
    if [delay] fails {!Delay.validate}. *)
