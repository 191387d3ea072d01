(* Traced replay of [Dia_experiments.Fig7.run_panel] without a pool.

   Mirrors Runner.average_normalized / Runner.place_and_evaluate through
   the public functions of Placement, Problem, Algorithm, Objective and
   Lower_bound, with a span around every call. The benchmark checks that
   the points equal run_panel's bit for bit. Keep it in step with
   lib/experiments/fig7.ml and lib/experiments/runner.ml. *)

module Fig7 = Dia_experiments.Fig7
module Config = Dia_experiments.Config
module Runner = Dia_experiments.Runner
module Algorithm = Dia_core.Algorithm
module Problem = Dia_core.Problem
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Placement = Dia_placement.Placement

let span = Span.span
let n_problem = Span.name "problem.make"
let n_lower_bound = Span.name "lower_bound.compute"
let n_objective = Span.name "objective.eval"

let n_placement strategy =
  Span.name
    (match (strategy : Placement.strategy) with
    | Random_placement -> "placement.random"
    | K_center_a -> "placement.kcenter_a"
    | K_center_b -> "placement.kcenter_b")

let n_assign algorithm = Span.name ("assign." ^ Algorithm.key algorithm)

(* Runner.place_and_evaluate, then Runner.normalized. *)
let evaluate matrix ~strategy ~seed ~k =
  let servers = span (n_placement strategy) (fun () -> Placement.place strategy ~seed matrix ~k) in
  let p = span n_problem (fun () -> Problem.all_nodes_clients matrix ~servers) in
  let results =
    List.map
      (fun algorithm ->
        let a = span (n_assign algorithm) (fun () -> Algorithm.run algorithm p) in
        (algorithm, span n_objective (fun () -> Objective.max_interaction_path p a)))
      Runner.algorithms
  in
  let lb = span n_lower_bound (fun () -> Lower_bound.compute p) in
  List.map (fun (algorithm, d) -> (algorithm, d /. lb)) results

let run_panel ~(profile : Config.profile) matrix strategy =
  let points_for k =
    match strategy with
    | Placement.Random_placement ->
        let per_algorithm = Hashtbl.create 8 in
        for seed = 0 to profile.runs - 1 do
          List.iter
            (fun (algorithm, value) ->
              let previous = Option.value ~default:[] (Hashtbl.find_opt per_algorithm algorithm) in
              Hashtbl.replace per_algorithm algorithm (value :: previous))
            (evaluate matrix ~strategy ~seed ~k)
        done;
        List.map
          (fun algorithm ->
            let values = Option.value ~default:[] (Hashtbl.find_opt per_algorithm algorithm) in
            let s = Dia_stats.Summary.of_list values in
            {
              Fig7.servers = k;
              algorithm;
              normalized = s.Dia_stats.Summary.mean;
              stddev = s.Dia_stats.Summary.stddev;
            })
          Runner.algorithms
    | Placement.K_center_a | Placement.K_center_b ->
        List.map
          (fun (algorithm, normalized) -> { Fig7.servers = k; algorithm; normalized; stddev = 0. })
          (evaluate matrix ~strategy ~seed:0 ~k)
  in
  { Fig7.strategy; points = List.concat_map points_for profile.server_counts }
