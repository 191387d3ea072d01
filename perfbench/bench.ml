(* The benchmark executable.

   bench.exe --workload W --seed N --seconds S --trace 0|1 [--smoke] [--perturb]

   Every instance runs in a forked child, so each starts from the same
   small heap (a fresh process in all but its address), and its
   peak_heap_mb and GC counts are its own.

   --trace 0 runs a batch of instances fixed by S and the workload's
   instance_s. Per instance, one child runs the full workload call,
   untraced, exactly as a user makes it, and one runs the set-up only;
   before it, a child times the reference computation (reference.ml).
   It reports the end-to-end metrics, with the call's times as multiples
   of the reference's.

   --trace 1 runs, per instance, one child with the untraced call and
   one with the traced replay, over a batch half the size of --trace 0's
   (each instance runs twice); it checks that both produce the same
   bytes and reports the per-layer metrics. When the traced child of
   instance J ends, it writes its spans to
   perfbench/_work/spans.W.J.tsv. --perturb gives the traced replay
   another seed than the untraced run; the check must then fail.

   Either way the last line of standard output is one JSON object

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   and the exit code is 1 when any output check failed. --smoke shrinks
   every workload to a single tiny instance, for the self-test. *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("bench: " ^ m); exit 2) fmt

(* -- Arguments --------------------------------------------------------------- *)

type args = {
  workload : Workload.t;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  perturb : bool;
}

let parse argv =
  let workload = ref "" and seed = ref 42 and seconds = ref 10. and trace = ref false in
  let smoke = ref false and perturb = ref false in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> die "not an integer: %s" s in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of v; go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> die "--seconds must be a positive number");
        go rest
    | "--trace" :: v :: rest -> trace := int_of v <> 0; go rest
    | "--smoke" :: rest -> smoke := true; go rest
    | "--perturb" :: rest -> perturb := true; go rest
    | x :: _ -> die "unknown argument %s" x
  in
  go argv;
  let workload =
    match Workload.find ~smoke:!smoke !workload with
    | Some w -> w
    | None ->
        die "unknown workload %S (known: %s)" !workload
          (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all))
  in
  {
    workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace;
    smoke = !smoke;
    perturb = !perturb;
  }

(* -- Children ---------------------------------------------------------------- *)

(* Runs [f] in a forked child and returns its result, marshalled back
   through a pipe; an exception in the child comes back as [Error]. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc (v : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file | Failure _ -> Error "child died without a result"
      in
      close_in ic;
      match (v, Unix.waitpid [] pid) with
      | Ok _, (_, Unix.WEXITED 0) -> v
      | Ok _, _ -> Error "child exited abnormally"
      | Error _, _ -> v)

type run = {
  wall : float;
  cpu : float;
  peak_heap_mb : float;
  quality : Workload.quality;
  gc_minor : int;
  gc_major : int;
  gc_promoted_mwords : float;
  digest : string;  (** of the canonical output *)
  failures : string list;
}

let untraced spec () =
  let gc0 = Gc.quick_stat () in
  let wall, cpu, output, failures = Workload.run_untraced spec in
  let gc1 = Gc.quick_stat () in
  {
    wall;
    cpu;
    peak_heap_mb = Workload.peak_heap_mb ();
    quality = Workload.quality spec output;
    gc_minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    gc_promoted_mwords = (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6;
    digest = Digest.string (Workload.canonical output);
    failures;
  }

type traced = {
  t_aggs : (string * Span.agg) list;
  t_counters : (string * float) list;
  t_gc : int * int * float;
  t_digest : string;
  t_failures : string list;
}

let traced a ~index spec () =
  let gc0 = Gc.quick_stat () in
  let output, failures = Workload.run_traced spec in
  let gc1 = Gc.quick_stat () in
  Span.write (Workload.spans_file a.workload index);
  {
    t_aggs = Span.aggregate ();
    t_counters = Hashtbl.fold (fun k v acc -> (k, v) :: acc) Span.counters [];
    t_gc =
      ( gc1.Gc.minor_collections - gc0.Gc.minor_collections,
        gc1.Gc.major_collections - gc0.Gc.major_collections,
        gc1.Gc.promoted_words -. gc0.Gc.promoted_words );
    t_digest = Digest.string (Workload.canonical output);
    t_failures = failures;
  }

(* -- Output ------------------------------------------------------------------ *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~attempted ~failures ~failed metrics =
  List.iter (fun m -> Printf.printf "check failed: %s\n" m) failures;
  List.iter (fun (name, unit, v) -> Printf.printf "%-36s %s %s\n" name (json_num v) unit) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed body;
  exit (if failed = 0 then 0 else 1)

let median l =
  let s = Array.of_list l in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let sum l = List.fold_left ( +. ) 0. l
let ratio x y = if y > 0. then x /. y else 0.
let batch a = if a.smoke then 1 else Workload.batch a.workload ~seconds:a.seconds

(* -- --trace 0: end-to-end metrics over a batch -------------------------------- *)

(* Reference runs before instance [j]: the ceil of (j + 1) * reference_runs
   less the ceil of j * reference_runs, so instance 0 always has one and
   the batch's total tracks reference_runs per instance. *)
let reference_reps (w : Workload.t) j =
  let upto j = int_of_float (Float.ceil (float_of_int j *. w.reference_runs)) in
  upto (j + 1) - upto j

let end_to_end a =
  let w = a.workload and m = batch a in
  let failures = ref [] and failed = ref 0 and runs = ref [] and setups = ref [] in
  let refs = ref [] in
  (* The batch is fixed by --seconds, so the quality figures are a
     function of the seed alone; the deadline only guards against a host
     so slow that the run would not end in time. An untimed run of the
     reference first warms up the host. *)
  ignore (in_child (Reference.time ~reps:1));
  let deadline = Workload.wall () +. (1.2 *. a.seconds) in
  let ran = ref 0 in
  while !ran < m && (!ran < 3 || Workload.wall () < deadline) do
    let j = !ran in
    incr ran;
    let spec = Workload.spec w ~seed:a.seed j in
    let fail ms =
      failures := !failures @ List.map (Printf.sprintf "instance %d: %s" j) ms;
      if ms <> [] then incr failed
    in
    (* The reference runs right before the instance, so that both see
       the host in the same state: reference_runs times per instance on
       average, spread evenly over the batch. *)
    let reps = reference_reps w j in
    (if reps > 0 then
       match in_child (Reference.time ~reps) with
       | Ok (wall, cpu) ->
           Printf.printf "reference before instance %d: %d runs, %.4f s each\n" j reps
             (wall /. float_of_int reps);
           refs := (wall, cpu, reps) :: !refs
       | Error e -> fail [ "reference: " ^ e ]);
    (match in_child (untraced spec) with
    | Ok r ->
        Printf.printf
          "instance %d (sub-seed %d): run %.4f s, cpu %.4f s, %d events, heap %.1f MB, served %d \
           of %d\n"
          j (Workload.sub_seed a.seed j) r.wall r.cpu r.quality.events r.peak_heap_mb
          r.quality.served r.quality.joins;
        runs := r :: !runs;
        fail r.failures
    | Error e -> fail [ e ]);
    match in_child (fun () -> Workload.run_setup spec) with
    | Ok s -> setups := s :: !setups
    | Error e -> fail [ "set-up: " ^ e ]
  done;
  let m = !ran and runs = List.rev !runs in
  let med f = median (List.map f runs) and tot f = sum (List.map f runs) in
  let q f = tot (fun r -> float_of_int (f r.quality)) in
  Printf.printf "workload %s seed %d: %d instances (sub-seeds %d..%d)\n" w.name a.seed m
    (Workload.sub_seed a.seed 0)
    (Workload.sub_seed a.seed (m - 1));
  (* Times are means over the batch, in units of the mean time of one
     reference run. *)
  let n = float_of_int (List.length runs) in
  let reps = sum (List.map (fun (_, _, k) -> float_of_int k) !refs) in
  let ref_wall = sum (List.map (fun (w, _, _) -> w) !refs) /. reps in
  let ref_cpu = sum (List.map (fun (_, c, _) -> c) !refs) /. reps in
  let run_ref = tot (fun r -> r.wall) /. n /. ref_wall in
  Printf.printf "seconds (means): run %.4f cpu %.4f reference %.4f; set-up (median) %.4f\n"
    (tot (fun r -> r.wall) /. n)
    (tot (fun r -> r.cpu) /. n)
    ref_wall (median !setups);
  (match w.kind with
  | Workload.Soak_run _ ->
      Printf.printf "join_fail_share %.6f (%g of %g joins never got a server)\n"
        (ratio (q (fun q -> q.join_fail)) (q (fun q -> q.joins)))
        (q (fun q -> q.join_fail))
        (q (fun q -> q.joins))
  | Workload.Fig7_run _ -> ());
  Printf.printf "gc per instance (medians): minor %g major %g promoted %.3f Mwords\n"
    (med (fun r -> float_of_int r.gc_minor))
    (med (fun r -> float_of_int r.gc_major))
    (med (fun r -> r.gc_promoted_mwords));
  print_result ~attempted:m ~failures:!failures ~failed:!failed
    [
      ("run_ref", "ref", run_ref);
      ("cpu_ref", "ref", tot (fun r -> r.cpu) /. n /. ref_cpu);
      (* Set-up is reported in seconds, but of a host on which one
         reference run takes Reference.nominal_s, so that it does not
         drift with the host either. *)
      ("setup_s", "s", median !setups /. ref_wall *. Reference.nominal_s);
      ("events_per_ref", "1/ref", q (fun q -> q.events) /. n /. run_ref);
      ("peak_heap_mb", "MB", med (fun r -> r.peak_heap_mb));
      ("dlb_mean", "ratio", ratio (tot (fun r -> r.quality.dlb_sum)) (q (fun q -> q.dlb_n)));
      ("dlb_final", "ratio", tot (fun r -> r.quality.dlb_final) /. n);
      ("served_share", "share", ratio (q (fun q -> q.served)) (q (fun q -> q.joins)));
    ]

(* -- --trace 1: per-layer metrics from the traced replay ----------------------- *)

let per_layer a =
  (* Half the batch of --trace 0, since every instance runs twice. The
     batch is fixed by --seconds, so the summed counts and times describe
     the same work on any host; the deadline is only a guard. *)
  let w = a.workload and m = max 1 (batch a / 2) in
  let deadline = Workload.wall () +. (1.2 *. a.seconds) in
  let failures = ref [] and failed = ref 0 and attempted = ref 0 in
  let untraced_s = ref 0. and aggs = Hashtbl.create 64 and counters = Hashtbl.create 32 in
  let minor = ref 0 and major = ref 0 and promoted = ref 0. in
  let joins = ref 0 and join_fail = ref 0 in
  while !attempted < m && (!attempted = 0 || Workload.wall () < deadline) do
    let j = !attempted in
    incr attempted;
    let spec = Workload.spec w ~seed:a.seed j in
    let traced_spec = if a.perturb then Workload.spec w ~seed:(a.seed + 1) j else spec in
    let problems =
      match (in_child (untraced spec), in_child (traced a ~index:j traced_spec)) with
      | Ok r, Ok t ->
          untraced_s := !untraced_s +. r.wall;
          joins := !joins + r.quality.joins;
          join_fail := !join_fail + r.quality.join_fail;
          List.iter
            (fun (name, agg) ->
              match Hashtbl.find_opt aggs name with
              | Some into -> Span.merge into agg
              | None -> Hashtbl.replace aggs name agg)
            t.t_aggs;
          List.iter
            (fun (k, v) ->
              Hashtbl.replace counters k (v +. Option.value ~default:0. (Hashtbl.find_opt counters k)))
            t.t_counters;
          let mi, ma, pr = t.t_gc in
          minor := !minor + mi;
          major := !major + ma;
          promoted := !promoted +. pr;
          r.failures @ t.t_failures
          @
          if r.digest = t.t_digest then []
          else [ "traced replay output differs from the untraced run" ]
      | Error e, _ -> [ "untraced: " ^ e ]
      | _, Error e -> [ "traced: " ^ e ]
    in
    if problems <> [] then incr failed;
    failures := !failures @ List.map (Printf.sprintf "instance %d: %s" j) problems
  done;
  let agg s = match Hashtbl.find_opt aggs s with Some a -> a | None -> Span.empty () in
  let c k = Option.value ~default:0. (Hashtbl.find_opt counters k) in
  let secs ns = float_of_int ns *. 1e-9 and us ns = ns *. 1e-3 in
  let calls s = float_of_int (agg s).Span.calls in
  let self s = secs (agg s).Span.self_ns in
  (* The soak loop's own per-event work (soak.step's self time) is glue
     between layer calls, so it counts as unattributed. *)
  let root = agg "run" in
  let traced_wall = secs root.Span.total_ns in
  let unattributed = secs root.Span.self_ns +. self "soak.step" in
  let latency prefix s =
    let h = (agg s).Span.h in
    let pct, v = Span.tail h in
    [
      (prefix ^ ".p50_us", "us", us (Span.percentile h 50.));
      (prefix ^ ".phi_us", "us", us v);
      (prefix ^ ".phi_pct", "pct", float_of_int pct);
    ]
  in
  let max_us s = us (float_of_int (agg s).Span.h.Span.max) in
  let ops s = [ (s ^ ".calls", "count", calls s); (s ^ ".self_s", "s", self s) ] in
  let self_only s = [ (s ^ ".self_s", "s", self s) ] in
  print_result ~attempted:!attempted ~failures:!failures ~failed:!failed
    (List.concat
       [
         ops "protocol.epoch";
         [
           ("protocol.epoch.max_us", "us", max_us "protocol.epoch");
           ("protocol.instantiate.self_s", "s", self "protocol.instantiate");
           ("protocol.stalls", "count", c "protocol.stalls");
           ("protocol.messages", "count", c "protocol.messages");
           ("protocol.applied_ratio", "ratio", ratio (c "protocol.applied") (calls "protocol.epoch"));
         ];
         ops "dynamic.rebalance";
         [
           ("dynamic.rebalance.moves", "count", c "dynamic.rebalance.moves");
           ( "dynamic.rebalance.productive_ratio",
             "ratio",
             ratio (c "dynamic.rebalance.productive") (calls "dynamic.rebalance") );
         ];
         ops "dynamic.refresh_standbys";
         [ ("dynamic.refresh_standbys.changed", "count", c "dynamic.refresh_standbys.changed") ];
         ops "dynamic.join";
         latency "dynamic.join" "dynamic.join";
         ops "dynamic.leave";
         latency "dynamic.leave" "dynamic.leave";
         ops "dynamic.promote_standby";
         ops "dynamic.recover_server";
         ops "dynamic.set_drift";
         ops "dynamic.move";
         ops "dynamic.objective";
         ops "dynamic.lower_bound";
         ops "dynamic.snapshot";
         self_only "dynamic.create";
         self_only "coreset.attach";
         ops "coreset.add";
         ops "coreset.remove";
         self_only "prepop";
         self_only "checkpoint.capture";
         self_only "checkpoint.encode";
         [ ("checkpoint.bytes", "bytes", c "checkpoint.bytes") ];
         ops "generation.save";
         ops "journal.append";
         self_only "journal.flush";
         [ ("journal.bytes", "bytes", c "journal.bytes") ];
         self_only "event_log.render";
         ops "offline.resolve";
         [ ("offline.resolve.p50_us", "us", us (Span.percentile (agg "offline.resolve").Span.h 50.)) ];
         [
           ("admission.consider.calls", "count", calls "admission.consider");
           ("admission.admit_ratio", "ratio", ratio (c "admission.admit") (calls "admission.consider"));
           ("admission.join_fail_share", "share", ratio (float_of_int !join_fail) (float_of_int !joins));
         ];
         ops "slo.observe";
         [
           ("slo.transitions", "count", c "slo.transitions");
           ("slo.critical_events", "count", c "slo.critical_events");
         ];
         self_only "trace.build";
         [ ("trace.events", "count", c "trace.events") ];
         self_only "latency.matrix";
         self_only "placement.random";
         self_only "placement.kcenter_a";
         self_only "placement.kcenter_b";
         ops "lower_bound.compute";
         List.concat_map
           (fun alg -> ops ("assign." ^ Dia_core.Algorithm.key alg))
           Dia_core.Algorithm.heuristics;
         ops "objective.eval";
         self_only "problem.make";
         self_only "soak.step";
         [
           ("event.count", "count", calls "soak.step");
           ("event.max_us", "us", max_us "soak.step");
         ];
         latency "event" "soak.step";
         [
           ("gc.minor_collections", "count", float_of_int !minor);
           ("gc.major_collections", "count", float_of_int !major);
           ("gc.promoted_mwords", "Mwords", !promoted /. 1e6);
           ("traced.wall_s", "s", traced_wall);
           ("untraced.wall_s", "s", !untraced_s);
           ("unattributed_s", "s", unattributed);
           ("attributed_share", "share", ratio (traced_wall -. unattributed) traced_wall);
           ("trace_overhead", "ratio", ratio traced_wall !untraced_s -. 1.);
         ];
       ])

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  if a.trace then per_layer a else end_to_end a
