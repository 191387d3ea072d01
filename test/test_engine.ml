(* Tests for Dia_sim.Engine. *)

module Engine = Dia_sim.Engine

let test_runs_in_time_order () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule engine 3. (fun () -> log := 3 :: !log);
  Engine.schedule engine 1. (fun () -> log := 1 :: !log);
  Engine.schedule engine 2. (fun () -> log := 2 :: !log);
  Engine.run engine;
  Alcotest.(check (list int)) "ordered" [ 1; 2; 3 ] (List.rev !log)

let test_fifo_for_simultaneous_events () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule engine 5. (fun () -> log := i :: !log)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_clock_advances () =
  let engine = Engine.create () in
  let seen = ref [] in
  Engine.schedule engine 2.5 (fun () -> seen := Engine.now engine :: !seen);
  Engine.schedule engine 7. (fun () -> seen := Engine.now engine :: !seen);
  Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "times" [ 2.5; 7. ] (List.rev !seen);
  Alcotest.(check (float 1e-9)) "final clock" 7. (Engine.now engine)

let test_events_scheduling_events () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec chain remaining =
    incr count;
    if remaining > 0 then Engine.schedule_after engine 1. (fun () -> chain (remaining - 1))
  in
  Engine.schedule engine 0. (fun () -> chain 4);
  Engine.run engine;
  Alcotest.(check int) "chained events" 5 !count;
  Alcotest.(check (float 1e-9)) "clock at end of chain" 4. (Engine.now engine)

let test_rejects_past_and_negative () =
  let engine = Engine.create () in
  Engine.schedule engine 5. (fun () ->
      Alcotest.(check bool) "past rejected" true
        (try
           Engine.schedule engine 1. ignore;
           false
         with Invalid_argument _ -> true));
  Engine.run engine;
  Alcotest.(check bool) "negative delay rejected" true
    (try
       Engine.schedule_after engine (-1.) ignore;
       false
     with Invalid_argument _ -> true)

let test_until_leaves_future_events_queued () =
  let engine = Engine.create () in
  let fired = ref [] in
  Engine.schedule engine 1. (fun () -> fired := 1 :: !fired);
  Engine.schedule engine 10. (fun () -> fired := 10 :: !fired);
  Engine.run ~until:5. engine;
  Alcotest.(check (list int)) "only early event" [ 1 ] (List.rev !fired);
  Alcotest.(check int) "late event pending" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list int)) "late event eventually fires" [ 1; 10 ] (List.rev !fired)

let test_many_events_stress () =
  let engine = Engine.create () in
  let rng = Random.State.make [| 4 |] in
  let fired = ref [] in
  for i = 0 to 999 do
    let at = Random.State.float rng 100. in
    Engine.schedule engine at (fun () -> fired := (at, i) :: !fired)
  done;
  Engine.run engine;
  let times = List.rev_map fst !fired in
  let sorted = List.sort Float.compare times in
  Alcotest.(check int) "all fired" 1000 (List.length times);
  Alcotest.(check bool) "in order" true (times = sorted)

(* -- Executable spec: a naive sorted-list engine --------------------------

   A random schedule is a forest of events: a root fires at its time,
   and every event, when it fires, schedules its children after their
   delays. Times and delays come from a coarse grid so equal times are
   common. The reference keeps its pending events in scheduling order
   and always fires the first of the earliest — a stable sort by time —
   which is the (time, seq) order the engine promises. *)

type node = { id : int; at : float; children : node list }

let gen_forest rng =
  let next_id = ref 0 in
  let grid () = float_of_int (Random.State.int rng 6) /. 2. in
  let rec node depth =
    let id = !next_id in
    incr next_id;
    let kids = if depth >= 3 then 0 else Random.State.int rng 3 in
    let at = grid () in
    { id; at; children = List.init kids (fun _ -> node (depth + 1)) }
  in
  List.init (1 + Random.State.int rng 70) (fun _ -> node 0)

(* Fire in the engine: [run ~until] for each limit in turn, then a
   final unbounded [run]; after each bounded run, note what is pending. *)
let engine_trace forest limits =
  let engine = Engine.create () in
  let fired = ref [] in
  let rec fire n () =
    fired := (n.id, Engine.now engine) :: !fired;
    List.iter (fun c -> Engine.schedule_after engine c.at (fire c)) n.children
  in
  List.iter (fun n -> Engine.schedule engine n.at (fire n)) forest;
  let pending =
    List.map
      (fun until ->
        Engine.run ~until engine;
        (List.length !fired, Engine.pending engine))
      limits
  in
  Engine.run engine;
  (List.rev !fired, pending)

let reference_trace forest limits =
  let queue = ref (List.map (fun n -> (n.at, n)) forest) in
  let fired = ref [] in
  let run until =
    let rec loop () =
      match List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) !queue with
      | (time, n) :: _ when time <= until ->
          (* Remove the first occurrence of the earliest event. *)
          let rec drop = function
            | [] -> []
            | (_, m) :: rest when m == n -> rest
            | e :: rest -> e :: drop rest
          in
          queue := drop !queue;
          fired := (n.id, time) :: !fired;
          queue := !queue @ List.map (fun c -> (time +. c.at, c)) n.children;
          loop ()
      | _ -> ()
    in
    loop ()
  in
  let pending =
    List.map
      (fun until ->
        run until;
        (List.length !fired, List.length !queue))
      limits
  in
  run infinity;
  (List.rev !fired, pending)

let prop_matches_sorted_list_reference =
  QCheck.Test.make ~name:"firing order matches a stable sort by time" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0xe9 |] in
      let forest = gen_forest rng in
      let limits =
        List.sort Float.compare
          (List.init (Random.State.int rng 3) (fun _ ->
               float_of_int (Random.State.int rng 8) /. 2.))
      in
      engine_trace forest limits = reference_trace forest limits)

let suite =
  [
    Alcotest.test_case "events run in time order" `Quick test_runs_in_time_order;
    Alcotest.test_case "simultaneous events are FIFO" `Quick test_fifo_for_simultaneous_events;
    Alcotest.test_case "clock advances with events" `Quick test_clock_advances;
    Alcotest.test_case "events can schedule events" `Quick test_events_scheduling_events;
    Alcotest.test_case "past times and negative delays rejected" `Quick
      test_rejects_past_and_negative;
    Alcotest.test_case "run ~until leaves future events queued" `Quick
      test_until_leaves_future_events_queued;
    Alcotest.test_case "1000-event stress stays ordered" `Quick test_many_events_stress;
    QCheck_alcotest.to_alcotest prop_matches_sorted_list_reference;
  ]
