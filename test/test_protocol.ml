(* Tests for Dia_sim.Protocol and Dia_sim.Checker: the executable
   counterpart of the paper's Section II analysis. *)

module Synthetic = Dia_latency.Synthetic
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Clock = Dia_core.Clock
module Algorithm = Dia_core.Algorithm
module Workload = Dia_sim.Workload
module Protocol = Dia_sim.Protocol
module Checker = Dia_sim.Checker

let instance seed ~n ~k =
  let m = Synthetic.internet_like ~seed n in
  let servers = Dia_placement.Placement.random ~seed ~k ~n in
  Problem.all_nodes_clients m ~servers

let run_synthesized ?jitter seed ~n ~k ~algorithm ~workload =
  let p = instance seed ~n ~k in
  let a = Algorithm.run algorithm p in
  let clock = Clock.synthesize p a in
  (p, a, clock, Protocol.run ?jitter p a clock workload)

let test_no_breaches_with_synthesized_clock () =
  let workload = Workload.rounds ~clients:12 ~rounds:3 ~period:50. in
  let _, _, _, report =
    run_synthesized 1 ~n:12 ~k:3 ~algorithm:Algorithm.Greedy ~workload
  in
  let verdict = Checker.analyze report in
  Alcotest.(check bool) "consistent" true verdict.consistent;
  Alcotest.(check bool) "fair" true verdict.fair;
  Alcotest.(check int) "no late executions" 0 verdict.late_executions;
  Alcotest.(check int) "no late visibilities" 0 verdict.late_visibilities

let test_interaction_times_all_equal_delta () =
  (* Section II-C: with synchronised client clocks every pairwise
     interaction time equals delta = D(A) exactly. *)
  let workload = Workload.of_list [ (0, 0.); (5, 10.); (9, 25.) ] in
  let _, _, clock, report =
    run_synthesized 2 ~n:10 ~k:2 ~algorithm:Algorithm.Nearest_server ~workload
  in
  let verdict = Checker.analyze report in
  Alcotest.(check bool) "uniform" true verdict.uniform_interaction;
  Alcotest.(check (float 1e-6)) "equal to delta" clock.Clock.delta
    verdict.max_interaction_time

let test_every_server_executes_every_op () =
  let workload = Workload.of_list [ (0, 0.); (1, 5.) ] in
  let p, _, _, report =
    run_synthesized 3 ~n:8 ~k:3 ~algorithm:Algorithm.Greedy ~workload
  in
  Alcotest.(check int) "executions = ops x servers"
    (2 * Problem.num_servers p)
    (List.length report.executions)

let test_every_client_sees_every_op () =
  let workload = Workload.of_list [ (0, 0.); (1, 5.); (2, 9.) ] in
  let p, _, _, report =
    run_synthesized 4 ~n:9 ~k:2 ~algorithm:Algorithm.Longest_first_batch ~workload
  in
  Alcotest.(check int) "visibilities = ops x clients"
    (3 * Problem.num_clients p)
    (List.length report.visibilities)

let test_message_count () =
  (* Per operation: 1 client->server, k-1 forwards, one update per
     client. *)
  let p = instance 5 ~n:10 ~k:3 in
  let a = Algorithm.run Algorithm.Greedy p in
  let clock = Clock.synthesize p a in
  let workload = Workload.of_list [ (0, 0.) ] in
  let report = Protocol.run p a clock workload in
  Alcotest.(check int) "messages"
    (1 + (Problem.num_servers p - 1) + Problem.num_clients p)
    report.messages

let test_smaller_delta_causes_breaches () =
  let p = instance 6 ~n:15 ~k:4 in
  let a = Algorithm.run Algorithm.Nearest_server p in
  let clock = Clock.synthesize p a in
  let tight = { clock with Clock.delta = clock.Clock.delta *. 0.5 } in
  let workload = Workload.rounds ~clients:15 ~rounds:2 ~period:100. in
  let report = Protocol.run p a tight workload in
  Alcotest.(check bool) "breaches appear" true (Checker.breach_rate report > 0.)

let test_consistency_lost_when_delta_too_small () =
  (* With delta far below D some server executes late, so simulation
     times of executions diverge. *)
  let p = instance 7 ~n:12 ~k:3 in
  let a = Algorithm.run Algorithm.Nearest_server p in
  let clock = Clock.synthesize p a in
  let tight = { clock with Clock.delta = 0.01 } in
  let workload = Workload.of_list [ (0, 0.) ] in
  let verdict = Checker.analyze (Protocol.run p a tight workload) in
  Alcotest.(check bool) "not consistent" false verdict.consistent

let test_jitter_causes_occasional_breaches () =
  let p = instance 8 ~n:12 ~k:3 in
  let a = Algorithm.run Algorithm.Greedy p in
  let clock = Clock.synthesize p a in
  let rng = Random.State.make [| 99 |] in
  let jitter ~src:_ ~dst:_ ~base =
    (* Up to 3x inflation: enough to break a clock tuned for zero
       jitter. *)
    base *. (1. +. Random.State.float rng 2.)
  in
  let workload = Workload.rounds ~clients:12 ~rounds:4 ~period:200. in
  let report = Protocol.run ~jitter p a clock workload in
  Alcotest.(check bool) "some breach" true (Checker.breach_rate report > 0.)

let test_percentile_planning_reduces_breaches () =
  (* Planning the clock on a high-percentile matrix (Section II-E) must
     yield fewer breaches than planning on the median when jitter is
     present. *)
  let m = Synthetic.internet_like ~seed:9 20 in
  let servers = Dia_placement.Placement.random ~seed:9 ~k:4 ~n:20 in
  let p = Problem.all_nodes_clients m ~servers in
  let a = Algorithm.run Algorithm.Greedy p in
  let model = Dia_latency.Jitter.make ~sigma:0.3 m in
  let p99_matrix = Dia_latency.Jitter.percentile_matrix model 99.9 in
  let p99 = Problem.all_nodes_clients p99_matrix ~servers in
  let clock_median = Clock.synthesize p a in
  let clock_p99 = Clock.synthesize p99 a in
  let jitter_rng = Random.State.make [| 5 |] in
  let gaussian () =
    let u = 1. -. Random.State.float jitter_rng 1. in
    let v = Random.State.float jitter_rng 1. in
    sqrt (-2. *. log u) *. cos (2. *. Float.pi *. v)
  in
  let jitter ~src:_ ~dst:_ ~base = base *. exp (0.3 *. gaussian ()) in
  let workload = Workload.rounds ~clients:20 ~rounds:5 ~period:500. in
  let rate_median = Checker.breach_rate (Protocol.run ~jitter p a clock_median workload) in
  let rate_p99 = Checker.breach_rate (Protocol.run ~jitter p a clock_p99 workload) in
  Alcotest.(check bool)
    (Printf.sprintf "p99 planning %.3f <= median planning %.3f" rate_p99 rate_median)
    true (rate_p99 <= rate_median)

let test_breach_rate_zero_on_synthesized_clock () =
  let workload = Workload.rounds ~clients:10 ~rounds:3 ~period:80. in
  let _, _, _, report =
    run_synthesized 13 ~n:10 ~k:3 ~algorithm:Algorithm.Greedy ~workload
  in
  Alcotest.(check (float 0.)) "no breaches on a clean clock" 0.
    (Checker.breach_rate report)

let test_breach_rate_matches_analyze () =
  (* breach_rate must be exactly the late events of [analyze] over the
     total deadline-bearing events of the report. *)
  let p = instance 14 ~n:14 ~k:4 in
  let a = Algorithm.run Algorithm.Nearest_server p in
  let clock = Clock.synthesize p a in
  let tight = { clock with Clock.delta = clock.Clock.delta *. 0.6 } in
  let workload = Workload.rounds ~clients:14 ~rounds:2 ~period:120. in
  let report = Protocol.run p a tight workload in
  let verdict = Checker.analyze report in
  let late = verdict.Checker.late_executions + verdict.Checker.late_visibilities in
  let total = List.length report.executions + List.length report.visibilities in
  Alcotest.(check bool) "the tight clock produced some late event" true (late > 0);
  Alcotest.(check (float 1e-12)) "rate = late / total"
    (float_of_int late /. float_of_int total)
    (Checker.breach_rate report)

let test_empty_workload () =
  let _, _, _, report =
    run_synthesized 10 ~n:6 ~k:2 ~algorithm:Algorithm.Greedy ~workload:[]
  in
  let verdict = Checker.analyze report in
  Alcotest.(check bool) "vacuously consistent" true verdict.consistent;
  Alcotest.(check bool) "vacuously fair" true verdict.fair;
  Alcotest.(check bool) "flagged empty" true verdict.empty;
  (* Empty runs normalise their statistics to 0., never nan, so
     downstream averaging cannot silently poison an aggregate. *)
  Alcotest.(check (float 0.)) "zero mean" 0. verdict.mean_interaction_time;
  Alcotest.(check (float 0.)) "zero max" 0. verdict.max_interaction_time;
  Alcotest.(check (float 0.)) "zero breach rate" 0. (Checker.breach_rate report)

let test_nonempty_not_flagged_empty () =
  let _, _, _, report =
    run_synthesized 12 ~n:6 ~k:2 ~algorithm:Algorithm.Greedy
      ~workload:(Workload.rounds ~clients:6 ~rounds:1 ~period:50.)
  in
  let verdict = Checker.analyze report in
  Alcotest.(check bool) "not empty" false verdict.empty;
  Alcotest.(check bool) "stats are real" true
    (Float.is_finite verdict.mean_interaction_time
    && verdict.mean_interaction_time > 0.)

let test_rejects_bad_issuer () =
  let p = instance 11 ~n:5 ~k:2 in
  let a = Algorithm.run Algorithm.Greedy p in
  let clock = Clock.synthesize p a in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Protocol.run p a clock (Workload.of_list [ (99, 0.) ]));
       false
     with Invalid_argument _ -> true)

let test_fairness_on_simultaneous_burst () =
  let workload = Workload.burst ~clients:10 ~at:3. in
  let _, _, _, report =
    run_synthesized 12 ~n:10 ~k:3 ~algorithm:Algorithm.Greedy ~workload
  in
  let verdict = Checker.analyze report in
  Alcotest.(check bool) "fair under burst" true verdict.fair;
  Alcotest.(check bool) "consistent under burst" true verdict.consistent

let prop_synthesized_clock_always_clean =
  (* Integration property: for random instances, algorithms, and
     workloads, the synthesized clock yields a consistent, fair run with
     uniform interaction times equal to delta. *)
  QCheck.Test.make ~name:"synthesized clock always runs clean" ~count:30
    QCheck.(quad (int_bound 1_000_000) (int_range 1 5) (int_range 2 12)
              (int_range 1 20))
    (fun (seed, k, extra, ops) ->
      let n = k + extra in
      let p = instance seed ~n ~k in
      let algorithm =
        List.nth Algorithm.heuristics (seed mod List.length Algorithm.heuristics)
      in
      let a = Algorithm.run algorithm p in
      let clock = Clock.synthesize p a in
      let rng = Random.State.make [| seed |] in
      let workload =
        Workload.of_list
          (List.init ops (fun _ ->
               (Random.State.int rng n, Random.State.float rng 500.)))
      in
      let verdict = Checker.analyze (Protocol.run p a clock workload) in
      verdict.Checker.consistent && verdict.Checker.fair
      && verdict.Checker.late_executions = 0
      && verdict.Checker.late_visibilities = 0
      && verdict.Checker.uniform_interaction
      && (ops = 0
         || Float.abs (verdict.Checker.max_interaction_time -. clock.Clock.delta)
            < 1e-6))

(* Bit-identity pin for the other Engine user: a jittered Poisson
   workload's executions and visibilities, by the bits of every time,
   recorded before the event heap was rewritten. *)
let test_pinned_report () =
  let p = instance 23 ~n:40 ~k:4 in
  let a = Algorithm.run Algorithm.Greedy p in
  let clock = Clock.synthesize p a in
  let workload = Workload.poisson ~seed:4 ~clients:40 ~rate:0.02 ~horizon:400. in
  let rng = Random.State.make [| 9 |] in
  let jitter ~src:_ ~dst:_ ~base = base *. (0.8 +. Random.State.float rng 0.4) in
  let report = Protocol.run ~jitter p a clock workload in
  let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f) in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Protocol.execution) ->
      Printf.bprintf buf "x%d,%d,%s,%s,%b;" e.op_id e.server (bits e.target_sim)
        (bits e.actual_sim) e.late)
    report.executions;
  List.iter
    (fun (v : Protocol.visibility) ->
      Printf.bprintf buf "v%d,%d,%s,%s,%b;" v.op_id v.observer (bits v.issue_sim)
        (bits v.visible_sim) v.late)
    report.visibilities;
  Alcotest.(check string) "report"
    "ops=315 messages=13860 wall=4086769645a59ee1 events=2f04b32fffb598c3b5586fe4afdc85fd"
    (Printf.sprintf "ops=%d messages=%d wall=%s events=%s"
       (Workload.count report.operations) report.messages (bits report.wall_duration)
       (Digest.to_hex (Digest.string (Buffer.contents buf))))

let suite =
  [
    Alcotest.test_case "no breaches with synthesized clock" `Quick
      test_no_breaches_with_synthesized_clock;
    Alcotest.test_case "interaction times all equal delta" `Quick
      test_interaction_times_all_equal_delta;
    Alcotest.test_case "every server executes every op" `Quick
      test_every_server_executes_every_op;
    Alcotest.test_case "every client sees every op" `Quick test_every_client_sees_every_op;
    Alcotest.test_case "message count per operation" `Quick test_message_count;
    Alcotest.test_case "delta below D causes breaches" `Quick
      test_smaller_delta_causes_breaches;
    Alcotest.test_case "consistency lost when delta tiny" `Quick
      test_consistency_lost_when_delta_too_small;
    Alcotest.test_case "jitter causes breaches" `Quick test_jitter_causes_occasional_breaches;
    Alcotest.test_case "percentile planning reduces breaches" `Quick
      test_percentile_planning_reduces_breaches;
    Alcotest.test_case "breach rate zero on synthesized clock" `Quick
      test_breach_rate_zero_on_synthesized_clock;
    Alcotest.test_case "breach rate matches analyze late counts" `Quick
      test_breach_rate_matches_analyze;
    Alcotest.test_case "empty workload" `Quick test_empty_workload;
    Alcotest.test_case "non-empty run not flagged empty" `Quick
      test_nonempty_not_flagged_empty;
    Alcotest.test_case "bad issuer rejected" `Quick test_rejects_bad_issuer;
    Alcotest.test_case "fairness under a simultaneous burst" `Quick
      test_fairness_on_simultaneous_burst;
    QCheck_alcotest.to_alcotest prop_synthesized_clock_always_clean;
    Alcotest.test_case "pinned report is bit-identical" `Quick test_pinned_report;
  ]
