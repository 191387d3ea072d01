(* Tests for Dia_sim.Dgreedy_protocol: the message-level protocol must
   reach the same kind of fixpoint as the centralized algorithm. *)

module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Nearest = Dia_core.Nearest
module Dgreedy_protocol = Dia_sim.Dgreedy_protocol

let instance ?capacity seed ~n ~k =
  let matrix = Dia_latency.Synthetic.internet_like ~seed n in
  let servers = Dia_placement.Placement.random ~seed ~k ~n in
  Problem.all_nodes_clients ?capacity matrix ~servers

let test_no_worse_than_nearest () =
  for seed = 0 to 4 do
    let p = instance seed ~n:30 ~k:4 in
    let result = Dgreedy_protocol.run p in
    let nearest_d = Objective.max_interaction_path p (Nearest.assign p) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: %.1f <= %.1f" seed result.objective nearest_d)
      true
      (result.objective <= nearest_d +. 1e-6)
  done

let test_bootstrap_is_nearest_server () =
  (* With no jitter, the clients' probe-and-join phase must produce
     exactly Nearest-Server Assignment, so the protocol's initial
     objective matches it. *)
  let p = instance 7 ~n:25 ~k:5 in
  let result = Dgreedy_protocol.run p in
  Alcotest.(check (float 1e-6)) "initial = NSA"
    (Objective.max_interaction_path p (Nearest.assign p))
    result.initial_objective

let test_local_optimality () =
  (* At termination no single client move may reduce D — the same
     fixpoint property as the centralized algorithm. *)
  let p = instance 3 ~n:24 ~k:4 in
  let result = Dgreedy_protocol.run p in
  let a = Assignment.to_array result.assignment in
  let d = result.objective in
  let improvable = ref false in
  for c = 0 to Problem.num_clients p - 1 do
    let original = a.(c) in
    for s = 0 to Problem.num_servers p - 1 do
      if s <> original then begin
        a.(c) <- s;
        let d' = Objective.max_interaction_path p (Assignment.unsafe_of_array a) in
        if d' < d -. 1e-6 then improvable := true;
        a.(c) <- original
      end
    done
  done;
  Alcotest.(check bool) "no improving move" false !improvable

let test_matches_centralized_quality () =
  (* Visit order differs, so assignments may differ, but the final
     objective should land close to the centralized one. *)
  for seed = 10 to 14 do
    let p = instance seed ~n:40 ~k:5 in
    let protocol_d = (Dgreedy_protocol.run p).objective in
    let central_d =
      Objective.max_interaction_path p (Dia_core.Distributed_greedy.assign p)
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: protocol %.1f vs centralized %.1f" seed protocol_d
         central_d)
      true
      (protocol_d <= central_d *. 1.25 +. 1e-6)
  done

let test_every_client_assigned () =
  let p = instance 2 ~n:35 ~k:6 in
  let result = Dgreedy_protocol.run p in
  Alcotest.(check int) "assignment complete" 35
    (Assignment.num_clients result.assignment)

let test_capacity_respected () =
  let p = instance ~capacity:5 6 ~n:20 ~k:5 in
  let result = Dgreedy_protocol.run p in
  Alcotest.(check bool) "capacitated" true
    (Assignment.respects_capacity p result.assignment)

let test_single_server () =
  let p = instance 8 ~n:12 ~k:1 in
  let result = Dgreedy_protocol.run p in
  Alcotest.(check int) "no modifications possible" 0 result.modifications;
  Alcotest.(check (float 1e-6)) "objective equals NSA"
    (Objective.max_interaction_path p (Nearest.assign p))
    result.objective

let test_message_accounting () =
  let p = instance 9 ~n:20 ~k:4 in
  let result = Dgreedy_protocol.run p in
  (* At minimum: bootstrap probes (2 messages per client-server pair),
     joins and accepts, inter-server probes, init broadcasts. *)
  let floor = (2 * 20 * 4) + (2 * 20) + (4 * 3) + (4 * 3) in
  Alcotest.(check bool)
    (Printf.sprintf "%d messages >= floor %d" result.messages floor)
    true
    (result.messages >= floor);
  Alcotest.(check bool) "protocol took wall time" true (result.wall_duration > 0.)

let test_jittered_measurements_still_terminate () =
  let p = instance 11 ~n:20 ~k:4 in
  let rng = Random.State.make [| 1 |] in
  let jitter ~src:_ ~dst:_ ~base = base *. (0.9 +. Random.State.float rng 0.2) in
  let result = Dgreedy_protocol.run ~jitter p in
  Alcotest.(check int) "all assigned" 20 (Assignment.num_clients result.assignment);
  (* With noisy measurements the objective is still evaluated on true
     latencies and must remain finite and no worse than ~NSA by much. *)
  Alcotest.(check bool) "objective finite" true (Float.is_finite result.objective)

let test_rejects_empty () =
  let matrix = Dia_latency.Synthetic.internet_like ~seed:1 4 in
  let p =
    Problem.make ~latency:matrix ~servers:[| 0; 1 |] ~clients:[||] ()
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Dgreedy_protocol.run p);
       false
     with Invalid_argument _ -> true)

(* Bit-identity pin: the full result record of five seeded runs,
   recorded before the message plane (Engine, Network, Fault, reliable
   transport) was rewritten for speed. Any change to the (time, seq)
   event order, the RNG draws or the result shows up here. Floats are
   compared by their bits, the assignment by a digest. *)
let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let fingerprint (r : Dgreedy_protocol.result) =
  let a = Assignment.to_array r.assignment in
  let f = r.faults in
  Printf.sprintf
    "assignment=%s objective=%s initial=%s wall=%s messages=%d modifications=%d \
     stalled=%b dropped=%d duplicated=%d undeliverable=%d retransmissions=%d \
     give_ups=%d regenerations=%d failovers=%d"
    (Digest.to_hex
       (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int a)))))
    (bits r.objective) (bits r.initial_objective) (bits r.wall_duration) r.messages
    r.modifications r.stalled f.dropped f.duplicated f.undeliverable f.retransmissions
    f.give_ups f.regenerations f.failovers

let pinned_runs =
  [
    ("reliable", None,
     "assignment=1910159ede4c8397802d4bd19dbf8736 objective=4070a9e558feafb3 initial=4070b033a48181b4 wall=40c9d73df45e83cd messages=1764 modifications=1 stalled=false dropped=0 duplicated=0 undeliverable=0 retransmissions=0 give_ups=0 regenerations=0 failovers=0");
    ("loss:0.1", Some 3,
     "assignment=1910159ede4c8397802d4bd19dbf8736 objective=4070a9e558feafb3 initial=4070b033a48181b3 wall=40e387cd387b7df9 messages=2397 modifications=1 stalled=false dropped=203 duplicated=0 undeliverable=0 retransmissions=188 give_ups=0 regenerations=0 failovers=0");
    ("loss:0.05+dup:0.1x2+spike:0.1~40", Some 5,
     "assignment=88dc6f05b278bab051005a02c1c201bf objective=4070a25cd2c7a1a3 initial=4072aa0a13ed3f70 wall=40e77edb698c8ba5 messages=2921 modifications=7 stalled=false dropped=144 duplicated=550 undeliverable=0 retransmissions=123 give_ups=0 regenerations=0 failovers=0");
    ("crash:1@22400+part:22300~24000@0,3", Some 7,
     "assignment=f95632de437468cc40c418f8c16427ab objective=4070a9e558feafb3 initial=407172d1e17b496d wall=41059cceeba4869b messages=5681 modifications=2 stalled=false dropped=770 duplicated=0 undeliverable=0 retransmissions=694 give_ups=76 regenerations=1 failovers=6");
    (* Heavy duplication with long spikes: frames overtake each other and
       copies of a frame arrive after later frames of its channel. *)
    ("dup:0.5+spike:0.5~1000", Some 11,
     "assignment=4c95e201752edfeb93ea653d66501a70 objective=4070611ba776553e initial=408f3105e1e25b7e wall=4101b6e448e785cb messages=7798 modifications=28 stalled=false dropped=0 duplicated=3893 undeliverable=0 retransmissions=183 give_ups=0 regenerations=0 failovers=0");
  ]

let test_pinned_results () =
  let p = instance 17 ~n:60 ~k:5 in
  List.iter
    (fun (spec, seed, expected) ->
      let fault =
        Option.map
          (fun seed ->
            Dia_sim.Fault.instantiate ~seed (Result.get_ok (Dia_sim.Fault.of_string spec)))
          seed
      in
      Alcotest.(check string) spec expected (fingerprint (Dgreedy_protocol.run ?fault p)))
    pinned_runs

let suite =
  [
    Alcotest.test_case "never worse than Nearest-Server" `Quick test_no_worse_than_nearest;
    Alcotest.test_case "bootstrap reproduces Nearest-Server" `Quick
      test_bootstrap_is_nearest_server;
    Alcotest.test_case "local optimality at termination" `Quick test_local_optimality;
    Alcotest.test_case "matches centralized quality" `Quick test_matches_centralized_quality;
    Alcotest.test_case "every client assigned" `Quick test_every_client_assigned;
    Alcotest.test_case "capacity respected" `Quick test_capacity_respected;
    Alcotest.test_case "single-server degenerate case" `Quick test_single_server;
    Alcotest.test_case "message accounting" `Quick test_message_accounting;
    Alcotest.test_case "terminates under measurement jitter" `Quick
      test_jittered_measurements_still_terminate;
    Alcotest.test_case "empty instance rejected" `Quick test_rejects_empty;
    Alcotest.test_case "pinned results are bit-identical" `Quick test_pinned_results;
  ]
