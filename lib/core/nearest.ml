module Landmark = Dia_latency.Landmark

(* An index is only usable when it answers exactly the queries the
   exhaustive scan would: same matrix (physically — a drifted copy has
   different entries) and the same candidate nodes in server order, so
   index i in an answer IS server i. *)
let check_index p index =
  if Landmark.matrix index != Problem.latency p then
    invalid_arg "Nearest.assign: index built over a different matrix";
  let cands = Landmark.candidates index in
  let servers = Problem.servers p in
  if
    Array.length cands <> Array.length servers
    || not (Array.for_all2 ( = ) cands servers)
  then invalid_arg "Nearest.assign: index candidates do not match the servers"

(* One arrival-order loop for every variant without an index: clients
   arrive in index order and each takes the unsaturated server
   minimising its own marginal hop cost d(c,s) + delay(load+1) — the
   delay its join inflicts. Strict < on an ascending scan keeps ties at
   the lowest index, so with zero delay this is the nearest server
   ([Problem.nearest_server]) and, under a capacity, the first server
   with room in [Problem.servers_by_distance] order. *)
let assign_by_cost ?delay p =
  let n = Problem.num_clients p in
  let k = Problem.num_servers p in
  let cap = match Problem.capacity p with None -> max_int | Some c -> c in
  let hop = Delay.table ?delay n in
  let load = Array.make k 0 in
  let pick c =
    let best = ref (-1) and best_cost = ref infinity in
    for s = 0 to k - 1 do
      if load.(s) < cap then begin
        let cost = Problem.d_cs p c s +. hop.(load.(s) + 1) in
        if cost < !best_cost then begin
          best_cost := cost;
          best := s
        end
      end
    done;
    (* make/with_capacity guarantee cap * |S| >= |C|, so a feasible
       server always exists. *)
    assert (!best >= 0);
    load.(!best) <- load.(!best) + 1;
    !best
  in
  Assignment.unsafe_of_array (Array.init n pick)

let assign ?index ?delay p =
  match (index, Problem.capacity p, delay) with
  | Some index, None, None ->
      check_index p index;
      let clients = Problem.clients p in
      (* Landmark.nearest runs the same strict-< ascending scan as
         [assign_by_cost] (pruned candidates provably cannot win), so
         the assignment is identical — index or not. *)
      Assignment.unsafe_of_array
        (Array.init (Problem.num_clients p) (fun c ->
             fst (Landmark.nearest index ~query:clients.(c))))
  | _ -> assign_by_cost ?delay p
