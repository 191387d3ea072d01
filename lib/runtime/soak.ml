module Dynamic = Dia_core.Dynamic
module Problem = Dia_core.Problem
module Greedy = Dia_core.Greedy
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Assignment = Dia_core.Assignment
module Fault = Dia_sim.Fault
module Dgreedy_protocol = Dia_sim.Dgreedy_protocol
module Weighted = Dia_coreset.Weighted

type scenario = {
  seed : int;
  nodes : int;
  servers : int;
  capacity : int option;
  horizon : float;
  join_rate : float;
  mean_lifetime : float;
  drift_period : float;
  drift_amplitude : float;
  fault : Fault.plan;
  clients : int;
  coreset_eps : float option;
  delay : Dia_core.Delay.t option;
}

let default_scenario =
  {
    seed = 42;
    nodes = 120;
    servers = 8;
    capacity = None;
    horizon = 300.;
    join_rate = 1.;
    mean_lifetime = 80.;
    drift_period = 20.;
    drift_amplitude = 0.3;
    fault =
      (match Fault.of_string "loss:0.1+crash:2@60~180" with
      | Ok p -> p
      | Error m -> failwith m);
    clients = 0;
    coreset_eps = None;
    delay = None;
  }

type config = {
  slo : Slo.config;
  budget : int;
  max_queue : int;
  lb_every : int;
  checkpoint_every : int;
  protocol_repair : bool;
  max_protocol_attempts : int;
  standby : bool;
  standby_bound : float;
  offline_baseline : bool;
}

let default_config =
  {
    slo = Slo.default_config;
    budget = 8;
    max_queue = 64;
    lb_every = 10;
    checkpoint_every = 100;
    protocol_repair = true;
    max_protocol_attempts = 3;
    standby = true;
    standby_bound = 3.0;
    offline_baseline = false;
  }

let validate scenario config =
  if scenario.nodes < 2 then invalid_arg "Soak: nodes must be >= 2";
  if scenario.servers < 1 || scenario.servers > scenario.nodes then
    invalid_arg "Soak: servers must be in [1, nodes]";
  (match scenario.capacity with
  | Some c when c < 1 -> invalid_arg "Soak: capacity must be positive"
  | _ -> ());
  if scenario.horizon < 0. || not (Float.is_finite scenario.horizon) then
    invalid_arg "Soak: horizon must be finite and non-negative";
  if scenario.join_rate <= 0. then invalid_arg "Soak: join_rate must be positive";
  if scenario.mean_lifetime <= 0. then
    invalid_arg "Soak: mean_lifetime must be positive";
  if scenario.drift_amplitude < 0. || scenario.drift_amplitude > 1. then
    invalid_arg "Soak: drift_amplitude must be in [0, 1]";
  if scenario.clients < 0 then invalid_arg "Soak: clients must be non-negative";
  (match (scenario.capacity, scenario.clients) with
  | Some c, n when n > c * scenario.servers ->
      invalid_arg "Soak: pre-populated clients exceed total capacity"
  | _ -> ());
  (match scenario.coreset_eps with
  | Some eps when (not (Float.is_finite eps)) || eps < 0. ->
      invalid_arg "Soak: coreset_eps must be finite and >= 0"
  | Some _ when scenario.capacity <> None ->
      invalid_arg
        "Soak: coreset_eps requires an uncapacitated scenario (a coreset \
         point stands for an unbounded population)"
  | _ -> ());
  (match scenario.delay with
  | Some d ->
      Dia_core.Delay.validate d;
      if scenario.coreset_eps <> None then
        invalid_arg
          "Soak: delay requires classic mode (coreset buckets hide the true \
           per-server load from the delay model)"
  | None -> ());
  Slo.validate_config config.slo;
  if config.budget < 0 then invalid_arg "Soak: budget must be non-negative";
  if config.max_queue < 0 then invalid_arg "Soak: max_queue must be non-negative";
  if config.lb_every < 1 then invalid_arg "Soak: lb_every must be >= 1";
  if config.checkpoint_every < 0 then
    invalid_arg "Soak: checkpoint_every must be non-negative";
  if config.max_protocol_attempts < 1 then
    invalid_arg "Soak: max_protocol_attempts must be >= 1";
  if not (Float.is_finite config.standby_bound) || config.standby_bound < 1. then
    invalid_arg "Soak: standby_bound must be finite and >= 1"

let fs = Codec.float_str

let digest scenario config =
  let s = scenario and c = config in
  let canonical =
    Printf.sprintf
      "soak seed=%d nodes=%d servers=%d capacity=%s horizon=%s join_rate=%s \
       mean_lifetime=%s drift_period=%s drift_amplitude=%s fault=%s \
       slo=%s,%s,%d,%s budget=%d max_queue=%d lb_every=%d checkpoint_every=%d \
       protocol_repair=%b max_protocol_attempts=%d standby=%b standby_bound=%s \
       offline_baseline=%b"
      s.seed s.nodes s.servers
      (match s.capacity with None -> "none" | Some c -> string_of_int c)
      (fs s.horizon) (fs s.join_rate) (fs s.mean_lifetime) (fs s.drift_period)
      (fs s.drift_amplitude)
      (Fault.to_string s.fault)
      (fs c.slo.Slo.degraded_at) (fs c.slo.Slo.critical_at) c.slo.Slo.hysteresis
      (fs c.slo.Slo.recover_margin) c.budget c.max_queue c.lb_every
      c.checkpoint_every c.protocol_repair c.max_protocol_attempts c.standby
      (fs c.standby_bound) c.offline_baseline
  in
  (* The weighted-mode fields extend the canonical string only when in
     use, so classic scenarios keep their historical digests (and their
     checkpoints stay resumable). *)
  let canonical =
    if s.clients = 0 && s.coreset_eps = None then canonical
    else
      canonical
      ^ Printf.sprintf " clients=%d coreset_eps=%s" s.clients
          (match s.coreset_eps with None -> "none" | Some e -> fs e)
  in
  (* Same deal for the delay model: delay-less scenarios keep their
     historical digests. *)
  let canonical =
    match s.delay with
    | None -> canonical
    | Some d ->
        canonical ^ Printf.sprintf " delay=%s" (Dia_core.Delay.to_string d)
  in
  Digest.to_hex (Digest.string canonical)

(* Distinct random server nodes — a deterministic function of the seed,
   independent of the trace streams. *)
let place ~seed ~servers ~nodes =
  let rng = Random.State.make [| seed; 0x736f616b |] in
  let chosen = Array.make nodes false in
  let out = Array.make servers 0 in
  let count = ref 0 in
  while !count < servers do
    let n = Random.State.int rng nodes in
    if not chosen.(n) then begin
      chosen.(n) <- true;
      out.(!count) <- n;
      incr count
    end
  done;
  out

let build_trace scenario =
  let churn =
    Trace.churn ~seed:scenario.seed ~nodes:scenario.nodes
      ~rate:scenario.join_rate ~mean_lifetime:scenario.mean_lifetime
      ~horizon:scenario.horizon
  in
  let drift =
    if scenario.drift_period > 0. && scenario.drift_amplitude > 0. then
      Trace.drift_walk ~seed:scenario.seed ~servers:scenario.servers
        ~period:scenario.drift_period ~amplitude:scenario.drift_amplitude
        ~horizon:scenario.horizon
    else []
  in
  let crashes = Trace.crashes_of_plan scenario.fault ~servers:scenario.servers in
  Trace.merge ~horizon:scenario.horizon [ churn; drift; crashes ]

type report = {
  digest : string;
  events : int;
  horizon : float;
  clients : int;
  weighted : bool;
  delay_model : string option;
  coreset_points : int;
  prepop_seconds : float;
  loop_seconds : float;
  live_servers : int;
  total_servers : int;
  final_objective : float;
  final_lb : float;
  final_ratio : float;
  resolve_objective : float;
  steady_ratio : float;
  budget : int;
  max_epoch_moves : int;
  slo_level : Slo.level;
  admitted : int;
  queued : int;
  shed : int;
  drained : int;
  abandoned : int;
  leaves : int;
  crashes : int;
  crashes_skipped : int;
  recoveries : int;
  drifts : int;
  stranded : int;
  promotions : int;
  promoted_clients : int;
  fallback_clients : int;
  standby_refreshes : int;
  standby_changed : int;
  standby_breaches : int;
  repairs : int;
  repair_moves : int;
  protocol_epochs : int;
  protocol_stalls : int;
  checkpoints : int;
  session_stats : Dynamic.stats;
  trace_points : (float * float * float) list;
  baseline_points : (float * float * float) list;
  competitive_mean : float;
  competitive_max : float;
  log : Event_log.entry list;
}

type outcome = Completed of report | Killed of Checkpoint.state

exception Kill of Checkpoint.state

let level_rank = function Slo.Healthy -> 0 | Slo.Degraded -> 1 | Slo.Critical -> 2

(* --- the controller state ------------------------------------------- *)

(* Everything the control loop reads and writes between two events. A
   run is [of_checkpoint] of a checkpoint (the empty cursor-0 one for a
   fresh run) and [capture] turns it back into one; those two are the
   only code that lists the fields. Lists are newest first. *)
type state = {
  scenario : scenario;
  config : config;
  digest : string;
  session : Dynamic.t;
  sessions : (int, int) Hashtbl.t;
      (* trace session -> Dynamic client id (classic) or node (weighted) *)
  weighted : Weighted.t option;
      (* a coreset bucket layer in front of the Dynamic turns most
         joins/leaves into O(1) counter bumps *)
  admission : Admission.t;
  slo : Slo.t;
  mutable now : float;  (* trace time of the last applied event *)
  mutable leaves : int;
  mutable crashes : int;
  mutable crashes_skipped : int;
  mutable recoveries : int;
  mutable drifts : int;
  mutable stranded : int;
  mutable repairs : int;
  mutable repair_moves : int;
  mutable max_epoch_moves : int;
  mutable protocol_epochs : int;
  mutable protocol_stalls : int;
  mutable rng_cursor : int;  (* sub-seed cursor of protocol epochs *)
  mutable lb : float;
  mutable events_since_lb : int;
  mutable checkpoints : int;
  mutable trace_points : (float * float * float) list;
  mutable baseline_points : (float * float * float) list;
  mutable log : Event_log.entry list;
}

let log_event st kind = st.log <- { Event_log.time = st.now; kind } :: st.log

(* Connect/disconnect one session, in either mode; both return the
   Dynamic client id the event log names (in weighted mode, the id of
   the bucket's representative member). *)
let connect st sid node =
  match st.weighted with
  | Some w ->
      Weighted.add w ~node;
      Hashtbl.replace st.sessions sid node;
      Weighted.handle w ~node
  | None ->
      let id = Dynamic.join st.session ~node in
      Hashtbl.replace st.sessions sid id;
      id

let disconnect st sid value =
  Hashtbl.remove st.sessions sid;
  match st.weighted with
  | Some w ->
      let id = Weighted.handle w ~node:value in
      Weighted.remove w ~node:value;
      id
  | None ->
      Dynamic.leave st.session value;
      value

let has_capacity st =
  match st.scenario.capacity with
  | None -> Dynamic.active_servers st.session <> []
  | Some c ->
      List.exists
        (fun s -> Dynamic.load st.session s < c)
        (Dynamic.active_servers st.session)

(* The offline instance over the *surviving* servers, with the drifted
   matrix: what lower bounds and re-solves must be measured against.
   Also returns survivor index -> full server index. *)
let survivor_problem st =
  if Dynamic.num_clients st.session = 0 then None
  else
    let p_full, _ = Dynamic.snapshot st.session in
    let live = Array.of_list (Dynamic.active_servers st.session) in
    if Array.length live = Problem.num_servers p_full then Some (p_full, live)
    else
      let full_servers = Problem.servers p_full in
      let servers = Array.map (fun s -> full_servers.(s)) live in
      let p =
        Problem.make ?capacity:st.scenario.capacity
          ~latency:(Problem.latency p_full) ~servers
          ~clients:(Problem.clients p_full) ()
      in
      Some (p, live)

(* With a delay model the control plane watches the load-aware pair —
   D_load(A) against LB_load — the same objective the session's
   placement scans minimise; without one, everything below reduces to
   the historical D/LB and is byte-identical to earlier versions. *)
let objective_now st =
  match st.scenario.delay with
  | None -> Dynamic.objective st.session
  | Some _ -> Dynamic.objective_load st.session

let resolve_now st p =
  let delay = st.scenario.delay in
  Objective.max_interaction_path ?delay p (Greedy.assign ?delay p)

let ratio_of st obj = if st.lb > 0. && Float.is_finite obj then obj /. st.lb else nan
let current_ratio st = ratio_of st (objective_now st)

let recompute_lb st =
  st.events_since_lb <- 0;
  (* The session maintains the bound incrementally (node-level, live
     servers only) — equal to [Lower_bound.compute] on the survivor
     problem up to float association, at amortized O(|S|) instead of
     O(n²·|S|) per refresh. *)
  st.lb <-
    (if Dynamic.num_clients st.session = 0 then nan
     else
       match st.scenario.delay with
       | None -> Dynamic.lower_bound st.session
       | Some _ -> Dynamic.lower_bound_load st.session);
  let obj = objective_now st in
  st.trace_points <- (st.now, obj, ratio_of st obj) :: st.trace_points;
  (* Competitive-ratio sampling: at every refresh point, pit the online
     (sticky) objective against a fresh offline Greedy re-solve over
     the same survivors — the baseline the empirical competitive ratio
     is measured from. *)
  if st.config.offline_baseline then
    match survivor_problem st with
    | None -> ()
    | Some (p, _) ->
        st.baseline_points <- (st.now, obj, resolve_now st p) :: st.baseline_points

(* A capacitated plan may need a specific move order to stay feasible
   at every intermediate step; find one, or refuse. *)
let feasible_order st plan_moves =
  match st.scenario.capacity with
  | None -> Some plan_moves
  | Some cap ->
      let loads = Array.init st.scenario.servers (Dynamic.load st.session) in
      let order = ref [] and pending = ref plan_moves in
      let progress = ref true in
      while !pending <> [] && !progress do
        progress := false;
        pending :=
          List.filter
            (fun (id, src, dst) ->
              if loads.(dst) < cap then begin
                loads.(dst) <- loads.(dst) + 1;
                loads.(src) <- loads.(src) - 1;
                order := (id, src, dst) :: !order;
                progress := true;
                false
              end
              else true)
            !pending
      done;
      if !pending = [] then Some (List.rev !order) else None

(* Protocol-level repair epoch: run Distributed-Greedy over the
   survivors under the ambient fault plan, restarting stalled runs with
   a doubled deadline (capped exponential backoff), then apply the plan
   move-by-move iff it strictly improves the objective and fits the
   remaining epoch budget. Returns the moves applied. *)
let protocol_epoch st ~epoch_moves =
  match survivor_problem st with
  | None -> 0
  | Some (p, live) ->
      let sc = st.scenario and cfg = st.config in
      (* Disk rules are not network weather: a plan that only injects
         storage faults must leave protocol-repair epochs running over a
         reliable network, byte-identical to the disk-fault-free run. *)
      let ambient = not (Fault.equal (Fault.network_rules sc.fault) Fault.reliable) in
      let rec attempt n tuning =
        let seed = sc.seed + 0x5eed + (7919 * st.rng_cursor) in
        st.rng_cursor <- st.rng_cursor + 1;
        let fault = if ambient then Some (Fault.instantiate ~seed sc.fault) else None in
        let res = Dgreedy_protocol.run ?fault ~tuning p in
        st.protocol_epochs <- st.protocol_epochs + 1;
        if res.Dgreedy_protocol.stalled then begin
          st.protocol_stalls <- st.protocol_stalls + 1;
          if n < cfg.max_protocol_attempts then
            attempt (n + 1)
              {
                tuning with
                Dgreedy_protocol.deadline = tuning.Dgreedy_protocol.deadline *. 2.;
              }
          else (n, res)
        end
        else (n, res)
      in
      let attempts, res = attempt 1 (Dgreedy_protocol.default_tuning p) in
      let target = Assignment.to_array res.Dgreedy_protocol.assignment in
      let plan_moves =
        Dynamic.members st.session
        |> List.mapi (fun i (id, _node, server) -> (i, id, server))
        |> List.filter_map (fun (i, id, server) ->
               let dst = live.(target.(i)) in
               if dst <> server then Some (id, server, dst) else None)
      in
      let n_moves = List.length plan_moves in
      let improves =
        Float.is_finite res.Dgreedy_protocol.objective
        && res.Dgreedy_protocol.objective < Dynamic.objective st.session
      in
      let fits = n_moves > 0 && epoch_moves + n_moves <= cfg.budget in
      let order = if improves && fits then feasible_order st plan_moves else None in
      Option.iter
        (List.iter (fun (id, _src, dst) -> Dynamic.move st.session id dst))
        order;
      let applied = order <> None in
      log_event st
        (Event_log.Protocol_repair
           {
             attempt = attempts;
             stalled = res.Dgreedy_protocol.stalled;
             moves = n_moves;
             applied;
           });
      if applied then n_moves else 0

let repair st to_ =
  let cfg = st.config in
  let before = objective_now st in
  let moves = Dynamic.rebalance ~max_moves:cfg.budget st.session in
  st.repairs <- st.repairs + 1;
  log_event st
    (Event_log.Repair { moves; budget = cfg.budget; before; after = objective_now st });
  let epoch_moves =
    if to_ = Slo.Critical && cfg.protocol_repair then
      moves + protocol_epoch st ~epoch_moves:moves
    else moves
  in
  st.repair_moves <- st.repair_moves + epoch_moves;
  if epoch_moves > st.max_epoch_moves then st.max_epoch_moves <- epoch_moves

let drain st =
  if Slo.level st.slo = Slo.Healthy then begin
    let continue = ref true in
    while !continue do
      if not (has_capacity st) then continue := false
      else
        match Admission.pop st.admission with
        | None -> continue := false
        | Some (sid, node) ->
            let id = connect st sid node in
            log_event st
              (Event_log.Drained
                 { session = sid; client = id; server = Dynamic.server_of st.session id })
    done
  end

(* Stranded orphans are never dropped on the floor: their trace
   sessions re-enter admission control (capacity is gone, so they queue
   under Healthy/Degraded and shed under Critical or a full queue),
   exactly like a fresh arrival that found no room. *)
let requeue_stranded st stranded =
  st.stranded <- st.stranded + List.length stranded;
  if stranded <> [] then begin
    let by_id = Hashtbl.create 8 in
    Hashtbl.iter (fun sid id -> Hashtbl.replace by_id id sid) st.sessions;
    List.iter
      (fun (id, node) ->
        match Hashtbl.find_opt by_id id with
        | None -> ()
        | Some sid -> (
            Hashtbl.remove st.sessions sid;
            match
              Admission.consider st.admission ~level:(Slo.level st.slo)
                ~has_capacity:false ~session:sid ~node
            with
            | Admission.Admit -> ()  (* unreachable: has_capacity is false *)
            | Admission.Queue -> log_event st (Event_log.Queued { session = sid })
            | Admission.Shed -> log_event st (Event_log.Shed { session = sid })))
      stranded
  end

(* What one trace event did: [Structural] changed the server set or the
   metric (crash, recovery, drift), which forces a lower-bound refresh;
   [Promoted] is a crash repaired by standby promotion, which also arms
   the standby-bound guard. *)
type impact = Plain | Structural | Promoted

let dispatch st = function
  | Trace.Join { session = sid; node } ->
      (match
         Admission.consider st.admission ~level:(Slo.level st.slo)
           ~has_capacity:(has_capacity st) ~session:sid ~node
       with
      | Admission.Admit ->
          let id = connect st sid node in
          log_event st
            (Event_log.Join
               { session = sid; client = id; server = Dynamic.server_of st.session id })
      | Admission.Queue -> log_event st (Event_log.Queued { session = sid })
      | Admission.Shed -> log_event st (Event_log.Shed { session = sid }));
      Plain
  | Trace.Leave { session = sid } ->
      (match Hashtbl.find_opt st.sessions sid with
      | Some value ->
          let id = disconnect st sid value in
          st.leaves <- st.leaves + 1;
          log_event st (Event_log.Leave { session = sid; client = id })
      | None ->
          (* queued (abandon), shed, or stranded — nothing connected *)
          ignore (Admission.abandon st.admission ~session:sid));
      Plain
  | Trace.Crash { server } ->
      if List.mem server (Dynamic.failed_servers st.session)
         || List.length (Dynamic.active_servers st.session) <= 1
      then begin
        st.crashes_skipped <- st.crashes_skipped + 1;
        log_event st (Event_log.Crash_skipped { server });
        Plain
      end
      else begin
        st.crashes <- st.crashes + 1;
        if st.config.standby then begin
          (* O(1)-per-client repair path: promote armed standbys first;
             budgeted rebalance and protocol epochs only run afterwards
             if the SLO (or the standby bound) says the result is not
             good enough. *)
          let r = Dynamic.promote_standby st.session server in
          log_event st
            (Event_log.Promote
               {
                 server;
                 promoted = r.Dynamic.promoted;
                 fallback = r.Dynamic.fallback;
                 stranded = List.length r.Dynamic.stranded;
               });
          requeue_stranded st r.Dynamic.stranded;
          Promoted
        end
        else
          let r = Dynamic.fail_server_report st.session server in
          log_event st
            (Event_log.Crash
               {
                 server;
                 migrated = r.Dynamic.migrated;
                 stranded = List.length r.Dynamic.stranded;
               });
          requeue_stranded st r.Dynamic.stranded;
          Structural
      end
  | Trace.Recover { server } ->
      if List.mem server (Dynamic.failed_servers st.session) then begin
        Dynamic.recover_server st.session server;
        st.recoveries <- st.recoveries + 1;
        log_event st (Event_log.Recover { server });
        Structural
      end
      else Plain (* its crash was refused or never happened *)
  | Trace.Drift { server; factor } ->
      Dynamic.set_drift st.session ~server ~factor;
      st.drifts <- st.drifts + 1;
      log_event st (Event_log.Drift { server; factor });
      Structural

(* One event through the control loop: dispatch, lower-bound refresh,
   standby-bound guard, SLO, admission drain, and at a checkpoint
   boundary the canonical standby re-arm. [i] is the event's trace
   cursor; returns whether it closed a checkpoint boundary. *)
let step st i (ev : Trace.event) =
  let cfg = st.config in
  st.now <- ev.time;
  let impact = dispatch st ev.kind in
  st.events_since_lb <- st.events_since_lb + 1;
  if impact <> Plain || st.events_since_lb >= cfg.lb_every then recompute_lb st;
  (* Standby-bound guard: when a promotion just landed, check the
     post-promotion D/LB against the configured bound and repair
     immediately (budgeted) on a breach — before the SLO machinery gets
     a say. *)
  if impact = Promoted then begin
    let ratio = current_ratio st in
    if Float.is_finite ratio && ratio > cfg.standby_bound then begin
      log_event st (Event_log.Standby_breach { ratio; bound = cfg.standby_bound });
      repair st Slo.Degraded
    end
  end;
  (match Slo.observe st.slo (current_ratio st) with
  | None -> ()
  | Some (from_, to_) ->
      let objective = match st.scenario.delay with None -> "d" | Some _ -> "d_load" in
      log_event st
        (Event_log.Transition { from_; to_; ratio = current_ratio st; objective });
      if level_rank to_ > level_rank from_ then repair st to_);
  drain st;
  let boundary = cfg.checkpoint_every > 0 && (i + 1) mod cfg.checkpoint_every = 0 in
  if boundary then begin
    (* Canonical standby re-arm at the boundary, *before* capture: the
       persisted map is then exactly what a restore-and-refresh would
       rebuild. *)
    if cfg.standby then
      log_event st
        (Event_log.Standby_refresh { changed = Dynamic.refresh_standbys st.session });
    st.checkpoints <- st.checkpoints + 1;
    log_event st (Event_log.Checkpoint { id = st.checkpoints })
  end;
  boundary

(* The session table, ascending by id, without sorting it. The
   pre-populated ids are the dense range -clients..-1, less any stranded
   away ([of_checkpoint] refuses every other negative id), so one pass
   over the table drops their values into an array indexed by -id and a
   walk over it lists them in order; only the trace sessions, a few
   hundred live at a time, need a sort. The pass reads the table's
   buckets in memory order, which costs about 60% of looking up each id
   in turn. *)
let sessions_ascending st =
  let clients = st.scenario.clients in
  let prepopulated = Array.make (clients + 1) min_int in
  let traced =
    Hashtbl.fold
      (fun sid v l ->
        if sid >= 0 then (sid, v) :: l
        else begin
          prepopulated.(-sid) <- v;
          l
        end)
      st.sessions []
  in
  let rec walk i acc =
    if i > clients then acc
    else
      let v = prepopulated.(i) in
      walk (i + 1) (if v = min_int then acc else (-i, v) :: acc)
  in
  walk 1 (List.sort compare traced)

let capture st ~cursor =
  let session = st.session and adm = st.admission in
  {
    Checkpoint.version = Checkpoint.version;
    digest = st.digest;
    cursor;
    now = st.now;
    capacity = st.scenario.capacity;
    members = Dynamic.members session;
    standbys = Dynamic.standbys session;
    next_id = Dynamic.next_id session;
    failed = Dynamic.failed_servers session;
    drift =
      List.init st.scenario.servers (fun s -> (s, Dynamic.drift session s))
      |> List.filter (fun (_, f) -> f <> 1.0);
    session_stats = Dynamic.stats session;
    sessions = sessions_ascending st;
    slo = Slo.encode st.slo;
    queue = adm.Admission.queue;
    admitted = adm.Admission.admitted;
    queued = adm.Admission.queued;
    shed = adm.Admission.shed;
    drained = adm.Admission.drained;
    abandoned = adm.Admission.abandoned;
    leaves = st.leaves;
    crashes = st.crashes;
    crashes_skipped = st.crashes_skipped;
    recoveries = st.recoveries;
    drifts = st.drifts;
    stranded = st.stranded;
    repairs = st.repairs;
    repair_moves = st.repair_moves;
    max_epoch_moves = st.max_epoch_moves;
    protocol_epochs = st.protocol_epochs;
    protocol_stalls = st.protocol_stalls;
    rng_cursor = st.rng_cursor;
    lb = st.lb;
    events_since_lb = st.events_since_lb;
    checkpoints = st.checkpoints;
    trace_points = List.rev st.trace_points;
    baseline_points = List.rev st.baseline_points;
    log = List.rev st.log;
  }

let of_checkpoint scenario config digest (ck : Checkpoint.state) =
  if ck.digest <> digest then
    invalid_arg "Soak.run: checkpoint digest mismatch (different scenario/config)";
  let matrix = Dia_latency.Synthetic.internet_like ~seed:scenario.seed scenario.nodes in
  let session =
    Dynamic.restore ?capacity:ck.capacity ?delay:scenario.delay ~standbys:ck.standbys
      matrix
      ~servers:(place ~seed:scenario.seed ~servers:scenario.servers ~nodes:scenario.nodes)
      ~members:ck.members ~next_id:ck.next_id ~failed:ck.failed ~drift:ck.drift
      ~stats:ck.session_stats
  in
  let sessions = Hashtbl.create 256 in
  List.iter
    (fun (sid, id) ->
      if sid < -scenario.clients then
        invalid_arg
          (Printf.sprintf
             "Soak.run: checkpoint session %d is outside the pre-populated ids \
              -%d..-1"
             sid scenario.clients);
      Hashtbl.replace sessions sid id)
    ck.sessions;
  let admission =
    { (Admission.create ~max_queue:config.max_queue) with
      Admission.queue = ck.queue; admitted = ck.admitted; queued = ck.queued;
      shed = ck.shed; drained = ck.drained; abandoned = ck.abandoned }
  in
  (* The bucket layer is rebuilt canonically from the session list (which
     maps to nodes in weighted mode) — the checkpoint format does not
     change. *)
  let weighted =
    Option.map
      (fun eps ->
        let counts = Hashtbl.create 64 in
        Hashtbl.iter
          (fun _sid node ->
            Hashtbl.replace counts node
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts node)))
          sessions;
        let counts = Hashtbl.fold (fun node c acc -> (node, c) :: acc) counts [] in
        Weighted.attach ~seed:scenario.seed ~eps matrix ~counts session)
      scenario.coreset_eps
  in
  {
    scenario;
    config;
    digest;
    session;
    sessions;
    weighted;
    admission;
    slo = Slo.decode config.slo ck.slo;
    now = ck.now;
    leaves = ck.leaves;
    crashes = ck.crashes;
    crashes_skipped = ck.crashes_skipped;
    recoveries = ck.recoveries;
    drifts = ck.drifts;
    stranded = ck.stranded;
    repairs = ck.repairs;
    repair_moves = ck.repair_moves;
    max_epoch_moves = ck.max_epoch_moves;
    protocol_epochs = ck.protocol_epochs;
    protocol_stalls = ck.protocol_stalls;
    rng_cursor = ck.rng_cursor;
    lb = ck.lb;
    events_since_lb = ck.events_since_lb;
    checkpoints = ck.checkpoints;
    trace_points = List.rev ck.trace_points;
    baseline_points = List.rev ck.baseline_points;
    log = List.rev ck.log;
  }

(* The end-of-trace report: a final lower-bound refresh, the offline
   re-solve, and the failover counters derived from the log. *)
let finish st ~events ~prepop_seconds ~loop_seconds =
  recompute_lb st;
  let final_objective = objective_now st in
  let resolve_objective =
    match survivor_problem st with None -> nan | Some (p, _) -> resolve_now st p
  in
  let steady_ratio =
    if resolve_objective > 0. && Float.is_finite final_objective then
      final_objective /. resolve_objective
    else 1.0
  in
  (* Failover/standby counters are derived from the event log rather
     than checkpointed: the log is already part of the determinism
     contract, so resumed runs reconstruct identical numbers without
     widening the checkpoint format with more scalars. *)
  let count f = List.fold_left (fun n e -> n + f e.Event_log.kind) 0 st.log in
  let ratios =
    List.filter_map
      (fun (_, online, resolve) ->
        if resolve > 0. && Float.is_finite online then Some (online /. resolve) else None)
      st.baseline_points
  in
  let competitive_max =
    match ratios with [] -> nan | r :: rest -> List.fold_left Float.max r rest
  in
  let competitive_mean =
    match ratios with
    | [] -> nan
    | _ -> List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios)
  in
  let sc = st.scenario and adm = st.admission in
  {
    digest = st.digest;
    events;
    horizon = sc.horizon;
    clients =
      (match st.weighted with
      | Some w -> Weighted.sessions w
      | None -> Dynamic.num_clients st.session);
    weighted = st.weighted <> None;
    delay_model = Option.map Dia_core.Delay.to_string sc.delay;
    coreset_points = Dynamic.num_clients st.session;
    prepop_seconds;
    loop_seconds;
    live_servers = List.length (Dynamic.active_servers st.session);
    total_servers = sc.servers;
    final_objective;
    final_lb = st.lb;
    final_ratio = ratio_of st final_objective;
    resolve_objective;
    steady_ratio;
    budget = st.config.budget;
    max_epoch_moves = st.max_epoch_moves;
    slo_level = Slo.level st.slo;
    admitted = adm.Admission.admitted;
    queued = adm.Admission.queued;
    shed = adm.Admission.shed;
    drained = adm.Admission.drained;
    abandoned = adm.Admission.abandoned;
    leaves = st.leaves;
    crashes = st.crashes;
    crashes_skipped = st.crashes_skipped;
    recoveries = st.recoveries;
    drifts = st.drifts;
    stranded = st.stranded;
    promotions = count (function Event_log.Promote _ -> 1 | _ -> 0);
    promoted_clients = count (function Event_log.Promote p -> p.promoted | _ -> 0);
    fallback_clients = count (function Event_log.Promote p -> p.fallback | _ -> 0);
    standby_refreshes = count (function Event_log.Standby_refresh _ -> 1 | _ -> 0);
    standby_changed = count (function Event_log.Standby_refresh r -> r.changed | _ -> 0);
    standby_breaches = count (function Event_log.Standby_breach _ -> 1 | _ -> 0);
    repairs = st.repairs;
    repair_moves = st.repair_moves;
    protocol_epochs = st.protocol_epochs;
    protocol_stalls = st.protocol_stalls;
    checkpoints = st.checkpoints;
    session_stats = Dynamic.stats st.session;
    trace_points = List.rev st.trace_points;
    baseline_points = List.rev st.baseline_points;
    competitive_mean;
    competitive_max;
    log = List.rev st.log;
  }

(* Before the first event: nothing connected, queued or logged, every
   counter zero, no bound yet. *)
let initial scenario config =
  {
    Checkpoint.version = Checkpoint.version;
    digest = digest scenario config;
    capacity = scenario.capacity;
    slo = Slo.encode (Slo.create config.slo);
    cursor = 0; now = 0.; lb = nan; next_id = 0; rng_cursor = 0;
    members = []; standbys = []; failed = []; drift = []; sessions = []; queue = [];
    trace_points = []; baseline_points = []; log = [];
    session_stats = { Dynamic.joins = 0; leaves = 0; moves = 0 };
    admitted = 0; queued = 0; shed = 0; drained = 0; abandoned = 0;
    leaves = 0; crashes = 0; crashes_skipped = 0; recoveries = 0; drifts = 0;
    stranded = 0; repairs = 0; repair_moves = 0; max_epoch_moves = 0;
    protocol_epochs = 0; protocol_stalls = 0; events_since_lb = 0; checkpoints = 0;
  }

(* The one place that decides what a resume folds. Every event is
   checked before the fold starts, so a damaged or forged record ends the
   tail instead of failing the fold halfway through it. *)
let journal_tail scenario ~dir (ck : Checkpoint.state) =
  match Journal.read (Filename.concat dir "journal") with
  | Error m -> ([], Some m)
  | Ok j when j.digest <> ck.digest ->
      ([], Some "journal digest mismatch (different scenario/config)")
  | Ok j ->
      let check = Trace.check ~servers:scenario.servers ~nodes:scenario.nodes in
      let stop acc fmt = Printf.ksprintf (fun m -> (List.rev acc, Some m)) fmt in
      let rec take next after acc = function
        | [] -> (List.rev acc, j.torn)
        | (r : Journal.record) :: rest when r.cursor < next && next = ck.cursor ->
            take next after acc rest
        | r :: rest when r.cursor = next -> (
            match Result.bind (Trace.of_line r.payload) (check ~after) with
            | Ok e -> take (next + 1) e.time (e :: acc) rest
            | Error m -> stop acc "bad record at cursor %d: %s" next m)
        | r :: _ -> stop acc "journal gap at cursor %d (next record %d)" next r.cursor
      in
      take ck.cursor ck.now [] j.records

let run ?state_dir ?(keep = 3) ?disk ?resume_from ?kill_at_event scenario config =
  validate scenario config;
  if keep < 1 then invalid_arg "Soak: keep must be >= 1";
  (match kill_at_event with
  | Some n when n < 0 -> invalid_arg "Soak: kill_at_event must be >= 0"
  | _ -> ());
  let disk = match disk with Some d -> d | None -> Disk.create scenario.fault in
  let dg = digest scenario config in
  let trace = build_trace scenario in
  let ck = match resume_from with Some ck -> ck | None -> initial scenario config in
  let st = of_checkpoint scenario config dg ck in
  let start = ck.Checkpoint.cursor in
  (* The base load belongs to cursor 0, before the first event; a later
     checkpoint carries it in its session list. Synthetic sessions use
     negative ids, which no trace event references, so they never leave;
     they bypass admission control and the event log (a million log
     lines would drown the signal). *)
  let prepop_seconds =
    if start > 0 || scenario.clients = 0 then 0.
    else begin
      let t0 = Sys.time () in
      let rng = Random.State.make [| scenario.seed; 0xc11e |] in
      for i = 1 to scenario.clients do
        ignore (connect st (-i) (Random.State.int rng scenario.nodes))
      done;
      Sys.time () -. t0
    end
  in
  (* Durable-recovery state under [state_dir]: the write-ahead journal of
     trace events plus numbered checkpoint generations, both written
     through the storage fault injector. A resume reads the old journal's
     tail before the new journal truncates the file, and applies it first. *)
  let tail, journal =
    match state_dir with
    | None -> ([], None)
    | Some dir ->
        Generation.refuse_newer ~dir;
        let tail =
          if Option.is_some resume_from then fst (journal_tail scenario ~dir ck) else []
        in
        Generation.ensure_dir dir;
        let path = Filename.concat dir "journal" in
        (tail, Some (Journal.create ~disk ~path ~digest:dg ~base:start ()))
  in
  (* A boundary captures only when a state directory persists it: the
     cost is linear in the sessions, one pass over the session table
     ([sessions_ascending]) and one writing the file image
     ([Checkpoint.encode]). At 150k weighted sessions that is about
     20 ms plus 30 ms on a 1-core host, over ten times what the hundred
     events between two boundaries cost. A kill captures after the
     boundary's save, so a kill on event [n * checkpoint_every - 1]
     returns exactly the state of the [n]-th checkpoint. *)
  let apply i ev =
    (match journal with
    | Some w -> Journal.append w ~cursor:i (Trace.to_line ev)
    | None -> ());
    if step st i ev then
      Option.iter
        (fun dir ->
          Option.iter Journal.flush journal;
          ignore (Generation.save ~disk ~dir ~keep (capture st ~cursor:(i + 1))))
        state_dir;
    match kill_at_event with
    | Some n when n = i -> raise (Kill (capture st ~cursor:(i + 1)))
    | _ -> ()
  in
  let loop_start = Sys.time () in
  match
    let next = List.fold_left (fun i ev -> apply i ev; i + 1) start tail in
    for i = next to Array.length trace - 1 do
      apply i trace.(i)
    done
  with
  | exception Kill ck ->
      (* The deterministic kill is graceful about the journal: buffered
         records are flushed, so a resume folds every event up to the
         kill point. Losing the buffer to a real SIGKILL is modeled
         explicitly by [jtorn:] plans instead. *)
      Option.iter Journal.close journal;
      Killed ck
  | () ->
      Option.iter Journal.close journal;
      let loop_seconds = Sys.time () -. loop_start in
      Completed (finish st ~events:(Array.length trace) ~prepop_seconds ~loop_seconds)

let render (r : report) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "soak report (digest %s)" r.digest;
  line "  events              %d over horizon %s" r.events (fs r.horizon);
  line "  clients             %d connected, servers %d/%d live" r.clients
    r.live_servers r.total_servers;
  if r.weighted then
    line "  coreset             %d points carry the %d weighted sessions"
      r.coreset_points r.clients;
  (match r.delay_model with
  | None -> ()
  | Some d ->
      line "  delay model         %s (objective and bound are D_load / LB_load)" d);
  line "  objective D(A)      %s" (fs r.final_objective);
  line "  lower bound LB      %s" (fs r.final_lb);
  line "  ratio D/LB          %s (slo %s)" (fs r.final_ratio)
    (Slo.level_name r.slo_level);
  line "  greedy re-solve     %s" (fs r.resolve_objective);
  line "  steady-state ratio  %s (D(A) / re-solve)" (fs r.steady_ratio);
  line "  admission           admitted=%d queued=%d drained=%d abandoned=%d shed=%d"
    r.admitted r.queued r.drained r.abandoned r.shed;
  line "  churn               leaves=%d" r.leaves;
  line "  chaos               crashes=%d refused=%d recoveries=%d drifts=%d stranded=%d"
    r.crashes r.crashes_skipped r.recoveries r.drifts r.stranded;
  line "  failover            promotions=%d promoted=%d fallback=%d breaches=%d"
    r.promotions r.promoted_clients r.fallback_clients r.standby_breaches;
  line "  standby             refreshes=%d changed=%d" r.standby_refreshes
    r.standby_changed;
  line "  competitive         samples=%d mean=%s max=%s"
    (List.length r.baseline_points)
    (fs r.competitive_mean) (fs r.competitive_max);
  line "  repair              epochs=%d moves=%d max-epoch-moves=%d budget=%d"
    r.repairs r.repair_moves r.max_epoch_moves r.budget;
  line "  protocol repair     epochs=%d stalls=%d" r.protocol_epochs
    r.protocol_stalls;
  line "  checkpoints         %d" r.checkpoints;
  line "  session             joins=%d leaves=%d moves=%d"
    r.session_stats.Dynamic.joins r.session_stats.Dynamic.leaves
    r.session_stats.Dynamic.moves;
  Buffer.contents b

let csv (r : report) =
  let b = Buffer.create 256 in
  Buffer.add_string b "t,objective,ratio\n";
  List.iter
    (fun (t, obj, ratio) ->
      Buffer.add_string b (Printf.sprintf "%s,%s,%s\n" (fs t) (fs obj) (fs ratio)))
    r.trace_points;
  Buffer.contents b
