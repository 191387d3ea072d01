(* The benchmark's workloads: what one instance runs, untraced and
   traced, and the checks its output must pass.

   A run of a workload is a batch of instances. Instance [j] of seed [s]
   uses the sub-seed [s * 1000 + j], so a batch covers several inputs
   drawn from one seed and the figures it reports (medians over
   instances, shares pooled over instances) move little from seed to
   seed. *)

module Soak = Dia_runtime.Soak
module Slo = Dia_runtime.Slo
module Trace = Dia_runtime.Trace
module Event_log = Dia_runtime.Event_log
module Journal = Dia_runtime.Journal
module Generation = Dia_runtime.Generation
module Fig7 = Dia_experiments.Fig7
module Config = Dia_experiments.Config
module Placement = Dia_placement.Placement

type soak = {
  scenario : Soak.scenario;
  config : Soak.config;
  durable : bool;  (** journal plus checkpoint generations in a state dir *)
}

type kind = Soak_run of (int -> soak) | Fig7_run of Config.profile

type t = {
  name : string;
  kind : kind;
  instance_s : float;
      (** sizes the batch: a run of S seconds holds S / instance_s
          instances. About the wall seconds of one untraced instance,
          with its reference computation and set-up, on a slow
          reference host. *)
  reference_runs : float;
      (** runs of the reference computation per instance, timed right
          before it: enough that they take about half as long as the
          instance. Below 1, the reference runs before every few
          instances only. *)
}

let sub_seed seed j = (seed * 1000) + j
let keep = 3

(* Every soak pins the SLO thresholds at 1.0, so that every instance
   escalates to Critical at its third event and stays there (D/LB >= 1
   always): one budgeted rebalance plus one protocol epoch per instance,
   and every later join goes through Critical's admission policy. Under
   the default thresholds, whether and when an instance reaches Critical
   depends on the seed. That makes classic-mode run time bimodal across
   seeds, and the share of joins served swing several-fold. *)
let pinned =
  {
    Soak.default_config with
    slo = { Slo.default_config with degraded_at = 1.0; critical_at = 1.0 };
  }

let classic_chaos clients seed =
  { scenario = { Soak.default_scenario with seed; clients }; config = pinned; durable = false }

let weighted_durable clients seed =
  {
    scenario = { Soak.default_scenario with seed; clients; coreset_eps = Some 0.05 };
    config = pinned;
    durable = true;
  }

let load_baseline clients seed =
  {
    scenario =
      {
        Soak.default_scenario with
        seed;
        clients;
        delay = Some (Dia_core.Delay.Linear { base = 0.; coeff = 0.05 });
      };
    config = { pinned with offline_baseline = true };
    durable = false;
  }

let all =
  [
    {
      name = "classic-chaos-2k";
      kind = Soak_run (classic_chaos 2000);
      instance_s = 1.2;
      reference_runs = 1.;
    };
    {
      name = "weighted-durable-150k";
      kind = Soak_run (weighted_durable 150_000);
      instance_s = 2.5;
      reference_runs = 1.5;
    };
    {
      name = "load-baseline";
      kind = Soak_run (load_baseline 300);
      instance_s = 0.8;
      reference_runs = 0.5;
    };
    {
      name = "paper-fig7";
      kind = Fig7_run { Config.default with runs = 2 };
      instance_s = 3.6;
      reference_runs = 2.;
    };
  ]

(* Smoke scale for the self-test: the same code paths on tiny inputs. *)
let smoke w =
  let kind =
    match w.kind with
    | Soak_run f ->
        Soak_run
          (fun seed ->
            let s = f seed in
            {
              s with
              scenario =
                { s.scenario with clients = s.scenario.clients / 100; horizon = 150. };
            })
    | Fig7_run p ->
        Fig7_run { p with Config.nodes = Some 80; runs = 2; server_counts = [ 10; 20 ] }
  in
  { w with kind }

let find ~smoke:s name =
  List.find_opt (fun w -> w.name = name) all |> Option.map (if s then smoke else Fun.id)

let batch w ~seconds = max 3 (int_of_float (seconds /. w.instance_s))

(* -- Instances -------------------------------------------------------------- *)

type spec = Soak_spec of soak | Fig7_spec of Config.profile * int

let spec w ~seed j =
  match w.kind with
  | Soak_run f -> Soak_spec (f (sub_seed seed j))
  | Fig7_run p -> Fig7_spec (p, sub_seed seed j)

let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* State directories of durable runs live here, one per run, removed
   after the run, and so do the span files of traced runs. Relative to
   the checkout root, where run.py starts. *)
let work = Filename.concat "perfbench" "_work"

let ensure_work () = if not (Sys.file_exists work) then Sys.mkdir work 0o755

(* Where the traced replay of instance [j] writes its spans; each traced
   run overwrites the files of the one before. *)
let spans_file w j =
  ensure_work ();
  Filename.concat work (Printf.sprintf "spans.%s.%d.tsv" w.name j)

(* A fresh, empty state directory under [work] for one durable run. *)
let fresh_dir () =
  ensure_work ();
  let rec pick i =
    let d = Filename.concat work (Printf.sprintf "state-%d-%d" (Unix.getpid ()) i) in
    if Sys.file_exists d then pick (i + 1) else d
  in
  pick 0

let remove_dir d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

(* Runs [f] with a fresh state directory when the instance is durable,
   then [check] on that directory, then removes it. *)
let with_state durable f check =
  if not durable then
    let v = f None in
    (v, [])
  else
    let dir = fresh_dir () in
    Fun.protect
      ~finally:(fun () -> remove_dir dir)
      (fun () ->
        let v = f (Some dir) in
        (v, check dir v))

type output = Soak_out of Soak.report | Fig7_out of Fig7.panel list

(** What the untraced and the traced run must agree on, byte for byte. *)
let canonical = function
  | Soak_out r -> Soak.render r ^ Event_log.render r.Soak.log
  | Fig7_out panels ->
      String.concat ""
        (List.concat_map
           (fun (p : Fig7.panel) ->
             List.map
               (fun (pt : Fig7.point) ->
                 Printf.sprintf "%s %d %s %Lx %Lx\n"
                   (Placement.strategy_name p.strategy)
                   pt.servers
                   (Dia_core.Algorithm.key pt.algorithm)
                   (Int64.bits_of_float pt.normalized)
                   (Int64.bits_of_float pt.stddev))
               p.points)
           panels)

(* -- Output checks ---------------------------------------------------------- *)

let tolerance = 1e-9

let durable_checks digest dir =
  let gen =
    match (Generation.latest ~dir, Generation.newest_verifying ~dir ~digest) with
    | None, _ -> [ "no checkpoint generation was written" ]
    | Some last, (Some (g, _), _) when g = last -> []
    | Some last, (Some (g, _), _) ->
        [ Printf.sprintf "newest verifying generation is ckpt.%d, not the last ckpt.%d" g last ]
    | Some _, (None, _) -> [ "no checkpoint generation verifies" ]
  in
  let journal =
    match Journal.read (Filename.concat dir "journal") with
    | Ok { Journal.torn = None; _ } -> []
    | Ok { Journal.torn = Some m; _ } -> [ "journal has a torn tail: " ^ m ]
    | Error m -> [ "journal unreadable: " ^ m ]
  in
  gen @ journal

let soak_checks (s : soak) (r : Soak.report) =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (t, obj, ratio) ->
      if Float.is_finite obj && Float.is_finite ratio && ratio < 1. -. tolerance then
        fail "D < LB at t=%g (ratio %.17g)" t ratio)
    r.Soak.trace_points;
  if
    Float.is_finite r.Soak.final_objective
    && Float.is_finite r.Soak.final_lb
    && r.Soak.final_objective < r.Soak.final_lb *. (1. -. tolerance)
  then fail "final D %.17g < LB %.17g" r.Soak.final_objective r.Soak.final_lb;
  if r.Soak.max_epoch_moves > r.Soak.budget then
    fail "max_epoch_moves %d exceeds budget %d" r.Soak.max_epoch_moves r.Soak.budget;
  (* Every requeued orphan goes back through admission, and every orphan
     is requeued (each live client belongs to a trace or pre-populated
     session). *)
  let joins =
    Array.fold_left
      (fun n e -> match e.Trace.kind with Trace.Join _ -> n + 1 | _ -> n)
      0 (Soak_replay.build_trace s.scenario)
  in
  let decided = r.Soak.admitted + r.Soak.queued + r.Soak.shed in
  if decided <> joins + r.Soak.stranded then
    fail "admission not conserved: admitted+queued+shed=%d, joins+requeued=%d" decided
      (joins + r.Soak.stranded);
  List.rev !failures

let fig7_checks panels =
  List.concat_map
    (fun (p : Fig7.panel) ->
      List.filter_map
        (fun (pt : Fig7.point) ->
          if pt.normalized >= 1. -. tolerance then None
          else
            Some
              (Printf.sprintf "%s k=%d %s normalized %.17g < 1"
                 (Placement.strategy_name p.strategy)
                 pt.servers
                 (Dia_core.Algorithm.key pt.algorithm)
                 pt.normalized))
        p.points)
    panels

(* -- Running one instance --------------------------------------------------- *)

let load_matrix profile seed = Config.load_dataset ~seed Config.Meridian_like profile

(** The untraced workload call, exactly as a user makes it: wall and CPU
    seconds of the call, its output, and the failed checks. *)
let run_untraced spec =
  match spec with
  | Soak_spec s ->
      let t0 = wall () and c0 = Sys.time () in
      let (r, dt, dc), durable =
        with_state s.durable
          (fun state_dir ->
            match Soak.run ?state_dir ~keep s.scenario s.config with
            | Soak.Completed r -> (r, wall () -. t0, Sys.time () -. c0)
            | Soak.Killed _ -> failwith "soak run was killed")
          (fun dir (r, _, _) -> durable_checks r.Soak.digest dir)
      in
      (dt, dc, Soak_out r, soak_checks s r @ durable)
  | Fig7_spec (profile, seed) ->
      let matrix = load_matrix profile seed in
      let t0 = wall () and c0 = Sys.time () in
      let panels = List.map (Fig7.run_panel ~profile matrix) Placement.all_strategies in
      let dt = wall () -. t0 and dc = Sys.time () -. c0 in
      (dt, dc, Fig7_out panels, fig7_checks panels)

(** Set-up only: the soak with an empty trace, or the dataset load. *)
let run_setup spec =
  let t0 = wall () in
  (match spec with
  | Soak_spec s ->
      let s = { s with scenario = { s.scenario with horizon = 0. } } in
      ignore
        (with_state s.durable
           (fun state_dir -> Soak.run ?state_dir ~keep s.scenario s.config)
           (fun _ _ -> []))
  | Fig7_spec (profile, seed) -> ignore (load_matrix profile seed));
  wall () -. t0

let n_run = Span.name "run"
let n_matrix = Span.name "latency.matrix"

(** The traced replay of the same instance, through the layers' public
    functions; also the failed checks of its own output. The replay of
    the workload call itself is the root span ["run"]; the dataset load
    of paper-fig7 is set-up and sits outside it. *)
let run_traced spec =
  match spec with
  | Soak_spec s ->
      let r, durable =
        with_state s.durable
          (fun state_dir ->
            Span.span n_run (fun () -> Soak_replay.run ?state_dir ~keep s.scenario s.config))
          (fun dir r -> durable_checks r.Soak.digest dir)
      in
      (Soak_out r, soak_checks s r @ durable)
  | Fig7_spec (profile, seed) ->
      let matrix = Span.span n_matrix (fun () -> load_matrix profile seed) in
      let panels =
        Span.span n_run (fun () ->
            List.map (Fig7_replay.run_panel ~profile matrix) Placement.all_strategies)
      in
      (Fig7_out panels, fig7_checks panels)

(* -- Quality figures of one instance ---------------------------------------- *)

type quality = {
  events : int;  (** trace events, or (placement, k, run) evaluations *)
  dlb_sum : float;
  dlb_n : int;
  dlb_final : float;
  served : int;  (** joins that got a server, or finite Fig. 7 points *)
  join_fail : int;  (** joins shed, abandoned, or still queued *)
  joins : int;  (** trace joins plus requeued orphans, or Fig. 7 points *)
}

let quality spec output =
  match (spec, output) with
  | Soak_spec _, Soak_out r ->
      let ratios =
        List.filter_map
          (fun (_, _, ratio) -> if Float.is_finite ratio then Some ratio else None)
          r.Soak.trace_points
      in
      let joins = r.Soak.admitted + r.Soak.queued + r.Soak.shed in
      let pending = r.Soak.queued - r.Soak.drained - r.Soak.abandoned in
      {
        events = r.Soak.events;
        dlb_sum = List.fold_left ( +. ) 0. ratios;
        dlb_n = List.length ratios;
        dlb_final = r.Soak.final_ratio;
        served = r.Soak.admitted + r.Soak.drained;
        join_fail = r.Soak.shed + r.Soak.abandoned + pending;
        joins;
      }
  | Fig7_spec (profile, _), Fig7_out panels ->
      let points = List.concat_map (fun (p : Fig7.panel) -> p.points) panels in
      let kmax = List.fold_left max 0 profile.server_counts in
      let sum l = List.fold_left (fun a (pt : Fig7.point) -> a +. pt.normalized) 0. l in
      let finals = List.filter (fun (pt : Fig7.point) -> pt.servers = kmax) points in
      let ks = List.length profile.server_counts in
      {
        events = ks * (profile.runs + 2);
        dlb_sum = sum points;
        dlb_n = List.length points;
        dlb_final = sum finals /. float_of_int (List.length finals);
        served = List.length (List.filter (fun (pt : Fig7.point) -> Float.is_finite pt.normalized) points);
        join_fail = 0;
        joins = List.length points;
      }
  | _ -> invalid_arg "Workload.quality: output does not match the instance"
