(* Traced replay of [Dia_runtime.Soak.run] for fresh (non-resumed) runs.

   The control loop is re-driven here through the public functions of
   each layer, with a span around every call, so per-layer time can be
   measured without instrumenting the library. It must reproduce the
   untraced run's report and event log byte for byte; the benchmark
   checks that on every traced instance. Keep it in step with
   lib/runtime/soak.ml. *)

module Soak = Dia_runtime.Soak
module Trace = Dia_runtime.Trace
module Event_log = Dia_runtime.Event_log
module Admission = Dia_runtime.Admission
module Slo = Dia_runtime.Slo
module Journal = Dia_runtime.Journal
module Generation = Dia_runtime.Generation
module Checkpoint = Dia_runtime.Checkpoint
module Disk = Dia_runtime.Disk
module Dynamic = Dia_core.Dynamic
module Problem = Dia_core.Problem
module Greedy = Dia_core.Greedy
module Objective = Dia_core.Objective
module Assignment = Dia_core.Assignment
module Fault = Dia_sim.Fault
module Dgreedy_protocol = Dia_sim.Dgreedy_protocol
module Weighted = Dia_coreset.Weighted

let span = Span.span
let n_matrix = Span.name "latency.matrix"
let n_trace = Span.name "trace.build"
let n_create = Span.name "dynamic.create"
let n_attach = Span.name "coreset.attach"
let n_prepop = Span.name "prepop"
let n_step = Span.name "soak.step"
let n_consider = Span.name "admission.consider"
let n_pop = Span.name "admission.pop"
let n_abandon = Span.name "admission.abandon"
let n_join = Span.name "dynamic.join"
let n_leave = Span.name "dynamic.leave"
let n_add = Span.name "coreset.add"
let n_remove = Span.name "coreset.remove"
let n_promote = Span.name "dynamic.promote_standby"
let n_fail = Span.name "dynamic.fail_server_report"
let n_recover = Span.name "dynamic.recover_server"
let n_drift = Span.name "dynamic.set_drift"
let n_move = Span.name "dynamic.move"
let n_objective = Span.name "dynamic.objective"
let n_lower_bound = Span.name "dynamic.lower_bound"
let n_snapshot = Span.name "dynamic.snapshot"
let n_rebalance = Span.name "dynamic.rebalance"
let n_refresh = Span.name "dynamic.refresh_standbys"
let n_resolve = Span.name "offline.resolve"
let n_observe = Span.name "slo.observe"
let n_instantiate = Span.name "protocol.instantiate"
let n_epoch = Span.name "protocol.epoch"
let n_render = Span.name "event_log.render"
let n_append = Span.name "journal.append"
let n_flush = Span.name "journal.flush"
let n_capture = Span.name "checkpoint.capture"
let n_encode = Span.name "checkpoint.encode"
let n_save = Span.name "generation.save"

let level_rank = function Slo.Healthy -> 0 | Slo.Degraded -> 1 | Slo.Critical -> 2

(* Soak's server placement: distinct random nodes from the scenario seed. *)
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

let build_trace (scenario : Soak.scenario) =
  let churn =
    Trace.churn ~seed:scenario.seed ~nodes:scenario.nodes ~rate:scenario.join_rate
      ~mean_lifetime:scenario.mean_lifetime ~horizon:scenario.horizon
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

(* Replays Generation.save step by step so that encoding and the disk
   write are timed apart; the files written are the same. *)
let save_generation ~disk ~dir ~keep st =
  let data = span n_encode (fun () -> Checkpoint.encode st) in
  Span.count "checkpoint.bytes" (float_of_int (String.length data));
  span n_save (fun () ->
      Generation.ensure_dir dir;
      let gens = Generation.list ~dir in
      let n = match List.rev gens with [] -> 1 | g :: _ -> g + 1 in
      Disk.write_file disk ~path:(Generation.path ~dir n) data;
      List.iter
        (fun g ->
          if g <= n - keep then
            try Sys.remove (Generation.path ~dir g) with Sys_error _ -> ())
        gens)

let run ?state_dir ~keep (scenario : Soak.scenario) (config : Soak.config) =
  let disk = Disk.create scenario.fault in
  let dg = Soak.digest scenario config in
  let matrix =
    span n_matrix (fun () ->
        Dia_latency.Synthetic.internet_like ~seed:scenario.seed scenario.nodes)
  in
  let server_nodes =
    place ~seed:scenario.seed ~servers:scenario.servers ~nodes:scenario.nodes
  in
  let trace = span n_trace (fun () -> build_trace scenario) in
  Span.count "trace.events" (float_of_int (Array.length trace));
  let session =
    span n_create (fun () ->
        Dynamic.create ?capacity:scenario.capacity ?delay:scenario.delay matrix
          ~servers:server_nodes)
  in
  let sessions = Hashtbl.create 256 in
  let admission = Admission.create ~max_queue:config.max_queue in
  let slo = Slo.create config.slo in
  let weighted =
    match scenario.coreset_eps with
    | None -> None
    | Some eps ->
        Some
          (span n_attach (fun () ->
               Weighted.attach ~seed:scenario.seed ~eps matrix ~counts:[] session))
  in
  let connect sid node =
    match weighted with
    | Some w ->
        span n_add (fun () -> Weighted.add w ~node);
        Hashtbl.replace sessions sid node;
        Weighted.handle w ~node
    | None ->
        let id = span n_join (fun () -> Dynamic.join session ~node) in
        Hashtbl.replace sessions sid id;
        id
  in
  let disconnect sid value =
    Hashtbl.remove sessions sid;
    match weighted with
    | Some w ->
        let id = Weighted.handle w ~node:value in
        span n_remove (fun () -> Weighted.remove w ~node:value);
        id
    | None ->
        span n_leave (fun () -> Dynamic.leave session value);
        value
  in
  let connected () =
    match weighted with
    | Some w -> Weighted.sessions w
    | None -> Dynamic.num_clients session
  in
  (* Pre-population is one span: its per-session calls are not traced one
     by one, so the session-op metrics count trace-driven calls only. *)
  let prepop_seconds = ref 0. in
  if scenario.clients > 0 then
    span n_prepop (fun () ->
        let t0 = Sys.time () in
        let rng = Random.State.make [| scenario.seed; 0xc11e |] in
        for i = 1 to scenario.clients do
          let node = Random.State.int rng scenario.nodes in
          match weighted with
          | Some w ->
              Weighted.add w ~node;
              Hashtbl.replace sessions (-i) node
          | None -> Hashtbl.replace sessions (-i) (Dynamic.join session ~node)
        done;
        prepop_seconds := Sys.time () -. t0);
  let leaves = ref 0 and crashes = ref 0 and crashes_skipped = ref 0 in
  let recoveries = ref 0 and drifts = ref 0 and stranded = ref 0 in
  let repairs = ref 0 and repair_moves = ref 0 and max_epoch_moves = ref 0 in
  let protocol_epochs = ref 0 and protocol_stalls = ref 0 in
  let rng_cursor = ref 0 and lb = ref nan and events_since_lb = ref 0 in
  let checkpoints = ref 0 in
  let trace_points = ref [] and log = ref [] in
  let baseline_points = ref [] in
  let log_event time kind = log := { Event_log.time; kind } :: !log in
  let has_capacity () =
    match scenario.capacity with
    | None -> Dynamic.active_servers session <> []
    | Some c ->
        List.exists (fun s -> Dynamic.load session s < c) (Dynamic.active_servers session)
  in
  let survivor_problem () =
    if Dynamic.num_clients session = 0 then None
    else
      let p_full, _ = span n_snapshot (fun () -> Dynamic.snapshot session) in
      let live = Array.of_list (Dynamic.active_servers session) in
      if Array.length live = Problem.num_servers p_full then Some (p_full, live)
      else
        let full_servers = Problem.servers p_full in
        let servers = Array.map (fun s -> full_servers.(s)) live in
        let p =
          Problem.make ?capacity:scenario.capacity ~latency:(Problem.latency p_full)
            ~servers ~clients:(Problem.clients p_full) ()
        in
        Some (p, live)
  in
  let objective_name = match scenario.delay with None -> "d" | Some _ -> "d_load" in
  let objective_now () =
    span n_objective (fun () ->
        match scenario.delay with
        | None -> Dynamic.objective session
        | Some _ -> Dynamic.objective_load session)
  in
  let resolve_now p =
    span n_resolve (fun () ->
        match scenario.delay with
        | None -> Objective.max_interaction_path p (Greedy.assign p)
        | Some delay ->
            Objective.max_interaction_path_load p ~delay (Greedy.assign_load ~delay p))
  in
  let recompute_lb now =
    events_since_lb := 0;
    if Dynamic.num_clients session = 0 then lb := nan
    else
      lb :=
        span n_lower_bound (fun () ->
            match scenario.delay with
            | None -> Dynamic.lower_bound session
            | Some _ -> Dynamic.lower_bound_load session);
    let obj = objective_now () in
    let ratio = if !lb > 0. && Float.is_finite obj then obj /. !lb else nan in
    trace_points := (now, obj, ratio) :: !trace_points;
    if config.offline_baseline then
      match survivor_problem () with
      | None -> ()
      | Some (p, _) ->
          let resolve = resolve_now p in
          baseline_points := (now, obj, resolve) :: !baseline_points
  in
  let current_ratio () =
    let obj = objective_now () in
    if !lb > 0. && Float.is_finite obj then obj /. !lb else nan
  in
  let protocol_epoch now epoch_moves =
    match survivor_problem () with
    | None -> ()
    | Some (p, live) ->
        let base_tuning = Dgreedy_protocol.default_tuning p in
        let ambient = not (Fault.equal (Fault.network_rules scenario.fault) Fault.reliable) in
        let rec attempt n tuning =
          let seed = scenario.seed + 0x5eed + (7919 * !rng_cursor) in
          incr rng_cursor;
          let fault =
            if ambient then
              Some (span n_instantiate (fun () -> Fault.instantiate ~seed scenario.fault))
            else None
          in
          let res = span n_epoch (fun () -> Dgreedy_protocol.run ?fault ~tuning p) in
          Span.count "protocol.messages" (float_of_int res.Dgreedy_protocol.messages);
          incr protocol_epochs;
          if res.Dgreedy_protocol.stalled then begin
            incr protocol_stalls;
            Span.count "protocol.stalls" 1.;
            if n < config.max_protocol_attempts then
              attempt (n + 1)
                {
                  tuning with
                  Dgreedy_protocol.deadline = tuning.Dgreedy_protocol.deadline *. 2.;
                }
            else (n, res)
          end
          else (n, res)
        in
        let attempts, res = attempt 1 base_tuning in
        let members = Dynamic.members session in
        let target = Assignment.to_array res.Dgreedy_protocol.assignment in
        let plan_moves =
          List.mapi (fun i (id, _node, server) -> (i, id, server)) members
          |> List.filter_map (fun (i, id, server) ->
                 let dst = live.(target.(i)) in
                 if dst <> server then Some (id, server, dst) else None)
        in
        let n_moves = List.length plan_moves in
        let improves =
          Float.is_finite res.Dgreedy_protocol.objective
          && res.Dgreedy_protocol.objective
             < span n_objective (fun () -> Dynamic.objective session)
        in
        let fits = n_moves > 0 && !epoch_moves + n_moves <= config.budget in
        let order =
          if not (improves && fits) then None
          else
            match scenario.capacity with
            | None -> Some plan_moves
            | Some cap ->
                let loads = Array.init scenario.servers (fun s -> Dynamic.load session s) in
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
        in
        let applied =
          match order with
          | None -> false
          | Some moves ->
              List.iter
                (fun (id, _src, dst) -> span n_move (fun () -> Dynamic.move session id dst))
                moves;
              epoch_moves := !epoch_moves + n_moves;
              repair_moves := !repair_moves + n_moves;
              true
        in
        if applied then Span.count "protocol.applied" 1.;
        log_event now
          (Event_log.Protocol_repair
             { attempt = attempts; stalled = res.Dgreedy_protocol.stalled; moves = n_moves; applied })
  in
  let repair now to_ =
    let epoch_moves = ref 0 in
    let before = objective_now () in
    let moves =
      span n_rebalance (fun () -> Dynamic.rebalance ~max_moves:config.budget session)
    in
    Span.count "dynamic.rebalance.moves" (float_of_int moves);
    if moves > 0 then Span.count "dynamic.rebalance.productive" 1.;
    epoch_moves := moves;
    incr repairs;
    repair_moves := !repair_moves + moves;
    log_event now
      (Event_log.Repair { moves; budget = config.budget; before; after = objective_now () });
    if to_ = Slo.Critical && config.protocol_repair then protocol_epoch now epoch_moves;
    if !epoch_moves > !max_epoch_moves then max_epoch_moves := !epoch_moves
  in
  let drain now =
    if Slo.level slo = Slo.Healthy then begin
      let continue = ref true in
      while !continue do
        if not (has_capacity ()) then continue := false
        else
          match span n_pop (fun () -> Admission.pop admission) with
          | None -> continue := false
          | Some (sid, node) ->
              let id = connect sid node in
              log_event now
                (Event_log.Drained
                   { session = sid; client = id; server = Dynamic.server_of session id })
      done
    end
  in
  let consider ~has_capacity ~session ~node =
    let d =
      span n_consider (fun () ->
          Admission.consider admission ~level:(Slo.level slo) ~has_capacity ~session ~node)
    in
    if d = Admission.Admit then Span.count "admission.admit" 1.;
    d
  in
  let requeue_stranded now stranded =
    if stranded <> [] then begin
      let by_id = Hashtbl.create 8 in
      Hashtbl.iter (fun sid id -> Hashtbl.replace by_id id sid) sessions;
      List.iter
        (fun (id, node) ->
          match Hashtbl.find_opt by_id id with
          | None -> ()
          | Some sid -> (
              Hashtbl.remove sessions sid;
              match consider ~has_capacity:false ~session:sid ~node with
              | Admission.Admit -> ()
              | Admission.Queue -> log_event now (Event_log.Queued { session = sid })
              | Admission.Shed -> log_event now (Event_log.Shed { session = sid })))
        stranded
    end
  in
  let breach_pending = ref false in
  let dispatch now kind =
    match kind with
    | Trace.Join { session = sid; node } -> (
        match consider ~has_capacity:(has_capacity ()) ~session:sid ~node with
        | Admission.Admit ->
            let id = connect sid node in
            log_event now
              (Event_log.Join { session = sid; client = id; server = Dynamic.server_of session id });
            false
        | Admission.Queue ->
            log_event now (Event_log.Queued { session = sid });
            false
        | Admission.Shed ->
            log_event now (Event_log.Shed { session = sid });
            false)
    | Trace.Leave { session = sid } -> (
        match Hashtbl.find_opt sessions sid with
        | Some value ->
            let id = disconnect sid value in
            incr leaves;
            log_event now (Event_log.Leave { session = sid; client = id });
            false
        | None ->
            ignore (span n_abandon (fun () -> Admission.abandon admission ~session:sid));
            false)
    | Trace.Crash { server } ->
        let failed = Dynamic.failed_servers session in
        let live = Dynamic.active_servers session in
        if List.mem server failed || List.length live <= 1 then begin
          incr crashes_skipped;
          log_event now (Event_log.Crash_skipped { server });
          false
        end
        else if config.standby then begin
          let r = span n_promote (fun () -> Dynamic.promote_standby session server) in
          incr crashes;
          stranded := !stranded + List.length r.Dynamic.stranded;
          log_event now
            (Event_log.Promote
               {
                 server;
                 promoted = r.Dynamic.promoted;
                 fallback = r.Dynamic.fallback;
                 stranded = List.length r.Dynamic.stranded;
               });
          requeue_stranded now r.Dynamic.stranded;
          breach_pending := true;
          true
        end
        else begin
          let r = span n_fail (fun () -> Dynamic.fail_server_report session server) in
          incr crashes;
          let n_stranded = List.length r.Dynamic.stranded in
          stranded := !stranded + n_stranded;
          log_event now
            (Event_log.Crash { server; migrated = r.Dynamic.migrated; stranded = n_stranded });
          requeue_stranded now r.Dynamic.stranded;
          true
        end
    | Trace.Recover { server } ->
        if List.mem server (Dynamic.failed_servers session) then begin
          span n_recover (fun () -> Dynamic.recover_server session server);
          incr recoveries;
          log_event now (Event_log.Recover { server });
          true
        end
        else false
    | Trace.Drift { server; factor } ->
        span n_drift (fun () -> Dynamic.set_drift session ~server ~factor);
        incr drifts;
        log_event now (Event_log.Drift { server; factor });
        true
  in
  let capture ~cursor ~now =
    span n_capture (fun () ->
        let sessions_list =
          Hashtbl.fold (fun sid id acc -> (sid, id) :: acc) sessions [] |> List.sort compare
        in
        let drift_list =
          List.filter_map
            (fun s ->
              let f = Dynamic.drift session s in
              if f <> 1.0 then Some (s, f) else None)
            (List.init scenario.servers Fun.id)
        in
        {
          Checkpoint.version = Checkpoint.version;
          digest = dg;
          cursor;
          now;
          capacity = scenario.capacity;
          members = Dynamic.members session;
          standbys = Dynamic.standbys session;
          next_id = Dynamic.next_id session;
          failed = Dynamic.failed_servers session;
          drift = drift_list;
          session_stats = Dynamic.stats session;
          sessions = sessions_list;
          slo = Slo.encode slo;
          queue = admission.Admission.queue;
          admitted = admission.Admission.admitted;
          queued = admission.Admission.queued;
          shed = admission.Admission.shed;
          drained = admission.Admission.drained;
          abandoned = admission.Admission.abandoned;
          leaves = !leaves;
          crashes = !crashes;
          crashes_skipped = !crashes_skipped;
          recoveries = !recoveries;
          drifts = !drifts;
          stranded = !stranded;
          repairs = !repairs;
          repair_moves = !repair_moves;
          max_epoch_moves = !max_epoch_moves;
          protocol_epochs = !protocol_epochs;
          protocol_stalls = !protocol_stalls;
          rng_cursor = !rng_cursor;
          lb = !lb;
          events_since_lb = !events_since_lb;
          checkpoints = !checkpoints;
          trace_points = List.rev !trace_points;
          baseline_points = List.rev !baseline_points;
          log = List.rev !log;
        })
  in
  let journal =
    match state_dir with
    | None -> None
    | Some dir ->
        Generation.ensure_dir dir;
        Some (Journal.create ~disk ~path:(Filename.concat dir "journal") ~digest:dg ~base:0 ())
  in
  let last_now = ref 0. in
  let step i =
    let ev = trace.(i) in
    let now = ev.Trace.time in
    last_now := now;
    let log_mark = !log in
    let structural = dispatch now ev.Trace.kind in
    incr events_since_lb;
    if structural || !events_since_lb >= config.lb_every then recompute_lb now;
    if !breach_pending then begin
      breach_pending := false;
      let ratio = current_ratio () in
      if Float.is_finite ratio && ratio > config.standby_bound then begin
        log_event now (Event_log.Standby_breach { ratio; bound = config.standby_bound });
        repair now Slo.Degraded
      end
    end;
    (match span n_observe (fun () -> Slo.observe slo (current_ratio ())) with
    | None -> ()
    | Some (from_, to_) ->
        Span.count "slo.transitions" 1.;
        if to_ = Slo.Critical then Span.count "slo.critical_events" 1.;
        log_event now
          (Event_log.Transition { from_; to_; ratio = current_ratio (); objective = objective_name });
        if level_rank to_ > level_rank from_ then repair now to_);
    drain now;
    let boundary = config.checkpoint_every > 0 && (i + 1) mod config.checkpoint_every = 0 in
    if boundary then begin
      if config.standby then begin
        let changed = span n_refresh (fun () -> Dynamic.refresh_standbys session) in
        Span.count "dynamic.refresh_standbys.changed" (float_of_int changed);
        log_event now (Event_log.Standby_refresh { changed })
      end;
      incr checkpoints;
      log_event now (Event_log.Checkpoint { id = !checkpoints })
    end;
    (match journal with
    | None -> ()
    | Some w -> (
        let rec fresh acc l =
          if l == log_mark then acc else match l with [] -> acc | e :: tl -> fresh (e :: acc) tl
        in
        match fresh [] !log with
        | [] -> ()
        | entries ->
            let payload = span n_render (fun () -> Event_log.render entries) in
            span n_append (fun () -> Journal.append w ~cursor:i payload)));
    if boundary then
      match state_dir with
      | None -> ()
      | Some dir ->
          let st = capture ~cursor:(i + 1) ~now in
          (match journal with Some w -> span n_flush (fun () -> Journal.flush w) | None -> ());
          save_generation ~disk ~dir ~keep st
  in
  let loop_start = Sys.time () in
  for i = 0 to Array.length trace - 1 do
    Span.event := i;
    span n_step (fun () -> step i)
  done;
  Span.event := -1;
  (match (journal, state_dir) with
  | Some w, Some dir ->
      span n_flush (fun () -> Journal.close w);
      Span.count "journal.bytes"
        (float_of_int (Unix.stat (Filename.concat dir "journal")).Unix.st_size)
  | _ -> ());
  let loop_seconds = Sys.time () -. loop_start in
  recompute_lb !last_now;
  let final_objective = objective_now () in
  let final_ratio =
    if !lb > 0. && Float.is_finite final_objective then final_objective /. !lb else nan
  in
  let resolve_objective =
    match survivor_problem () with None -> nan | Some (p, _) -> resolve_now p
  in
  let steady_ratio =
    if resolve_objective > 0. && Float.is_finite final_objective then
      final_objective /. resolve_objective
    else 1.0
  in
  let promotions = ref 0 and promoted_clients = ref 0 in
  let fallback_clients = ref 0 and standby_refreshes = ref 0 in
  let standby_changed = ref 0 and standby_breaches = ref 0 in
  List.iter
    (fun e ->
      match e.Event_log.kind with
      | Event_log.Promote { promoted; fallback; _ } ->
          incr promotions;
          promoted_clients := !promoted_clients + promoted;
          fallback_clients := !fallback_clients + fallback
      | Event_log.Standby_refresh { changed } ->
          incr standby_refreshes;
          standby_changed := !standby_changed + changed
      | Event_log.Standby_breach _ -> incr standby_breaches
      | _ -> ())
    !log;
  let ratios =
    List.filter_map
      (fun (_, online, resolve) ->
        if resolve > 0. && Float.is_finite online then Some (online /. resolve) else None)
      !baseline_points
  in
  let competitive_max =
    match ratios with [] -> nan | r :: rest -> List.fold_left Float.max r rest
  in
  let competitive_mean =
    match ratios with
    | [] -> nan
    | _ -> List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios)
  in
  {
    Soak.digest = dg;
    events = Array.length trace;
    horizon = scenario.horizon;
    clients = connected ();
    weighted = weighted <> None;
    delay_model = Option.map Dia_core.Delay.to_string scenario.delay;
    coreset_points = Dynamic.num_clients session;
    prepop_seconds = !prepop_seconds;
    loop_seconds;
    live_servers = List.length (Dynamic.active_servers session);
    total_servers = scenario.servers;
    final_objective;
    final_lb = !lb;
    final_ratio;
    resolve_objective;
    steady_ratio;
    budget = config.budget;
    max_epoch_moves = !max_epoch_moves;
    slo_level = Slo.level slo;
    admitted = admission.Admission.admitted;
    queued = admission.Admission.queued;
    shed = admission.Admission.shed;
    drained = admission.Admission.drained;
    abandoned = admission.Admission.abandoned;
    leaves = !leaves;
    crashes = !crashes;
    crashes_skipped = !crashes_skipped;
    recoveries = !recoveries;
    drifts = !drifts;
    stranded = !stranded;
    promotions = !promotions;
    promoted_clients = !promoted_clients;
    fallback_clients = !fallback_clients;
    standby_refreshes = !standby_refreshes;
    standby_changed = !standby_changed;
    standby_breaches = !standby_breaches;
    repairs = !repairs;
    repair_moves = !repair_moves;
    protocol_epochs = !protocol_epochs;
    protocol_stalls = !protocol_stalls;
    checkpoints = !checkpoints;
    session_stats = Dynamic.stats session;
    trace_points = List.rev !trace_points;
    baseline_points = List.rev !baseline_points;
    competitive_mean;
    competitive_max;
    log = List.rev !log;
  }
