(* Kernel-speedup smoke check.

   Times the two kernels named by ROADMAP item 3 — assign/greedy(n=300)
   and lower-bound/pruned(n=300) — on the exact instance the bechamel
   suite uses, and compares against the committed pre-refactor numbers in
   bench/BENCH.seed.json. A kernel fails its gate if its win over the
   seed drops below the --min factor (default 3.0: the refactor targets
   >= 5x on a quiet machine; CI runners are noisy, so the gate is
   deliberately generous). Three ratio gates follow: load-aware Greedy
   against plain Greedy on the same instance, the write-ahead journal's
   tax on the churn kernel, and the checkpoint encoder against its
   reference on a 150k-session state (last, as its soak leaves the
   biggest heap behind).

   Every gate runs and prints its verdict, so one noisy gate cannot hide
   another's result; the exit status is non-zero if any gate failed.

   Timing is best-of-N wall clock after warmup — the minimum is the right
   statistic for a regression gate because noise only ever adds time. *)

module Problem = Dia_core.Problem
module Placement = Dia_placement.Placement

let usage =
  "speedup [--seed-json PATH] [--min FACTOR] [--runs N] [--journal-max-overhead F]"
let seed_json = ref "bench/BENCH.seed.json"
let min_factor = ref 3.0
let runs = ref 12
let journal_max_overhead = ref 0.10

let () =
  Arg.parse
    [
      ("--seed-json", Arg.Set_string seed_json, "seed BENCH.json to compare against");
      ("--min", Arg.Set_float min_factor, "minimum acceptable speedup factor");
      ("--runs", Arg.Set_int runs, "timed repetitions (best-of)");
      ( "--journal-max-overhead",
        Arg.Set_float journal_max_overhead,
        "max tolerated write-ahead-journal overhead on the churn kernel \
         (fraction, default 0.10)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

(* Failed gates, each with its message, newest first. *)
let failures = ref []

let fail fmt = Printf.ksprintf (fun message -> failures := message :: !failures) fmt

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let after ~key line =
  let kl = String.length key and ll = String.length line in
  let rec go i =
    if i + kl > ll then None
    else if String.sub line i kl = key then Some (i + kl)
    else go (i + 1)
  in
  go 0

(* Pull "ns_per_run" for a kernel out of the seed JSON by string scanning
   — the file is machine-written with one kernel per line, and a JSON
   dependency is not worth it for a smoke tool. *)
let seed_ns name =
  let needle = Printf.sprintf "\"name\": \"%s\"" name in
  let ic = open_in !seed_json in
  let found = ref None in
  (try
     while !found = None do
       let line = input_line ic in
       if contains ~needle line then
         match after ~key:"\"ns_per_run\": " line with
         | None -> ()
         | Some start ->
             let stop = ref start in
             while
               !stop < String.length line
               && (match line.[!stop] with
                  | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
                  | _ -> false)
             do
               incr stop
             done;
             found := float_of_string_opt (String.sub line start (!stop - start))
     done
   with End_of_file -> ());
  close_in ic;
  match !found with
  | Some ns -> ns
  | None ->
      Printf.eprintf "speedup: kernel %S not found in %s\n" name !seed_json;
      exit 2

let best_of_wall f =
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let best = ref infinity in
  for _ = 1 to !runs do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best *. 1e9

(* The exact instance the bechamel kernels time. *)
let p =
  let matrix = Dia_latency.Synthetic.internet_like ~seed:3 300 in
  let servers = Placement.random ~seed:3 ~k:20 ~n:300 in
  Problem.all_nodes_clients matrix ~servers

let () =
  let kernels =
    [
      ("assign/greedy(n=300,k=20)", fun () -> ignore (Dia_core.Greedy.assign p));
      ("lower-bound/pruned(n=300)", fun () -> ignore (Dia_core.Lower_bound.compute p));
    ]
  in
  List.iter
    (fun (name, f) ->
      let seed = seed_ns name in
      let now = best_of_wall f in
      let factor = seed /. now in
      let verdict = if factor >= !min_factor then "OK" else "TOO SLOW" in
      if factor < !min_factor then
        fail "%s is %.2fx faster than the seed (gate: %.1fx; refactor target: 5x)"
          name factor !min_factor;
      Printf.printf "%-32s seed %10.0f ns   now %10.0f ns   speedup %5.2fx   [%s]\n%!"
        name seed now factor verdict)
    kernels

(* Load-aware Greedy gate: Greedy reads its delay model from a
   per-load table inside the same live-list loop as the load-blind run,
   so an M/M/1 model must cost at most [greedy_load_max_ratio] times the
   plain run on the bechamel instance. Timed in interleaved best-of
   rounds, like the journal gate below, so drift lands on both sides of
   the ratio. *)
let greedy_load_max_ratio = 2.0

let () =
  let delay = Dia_core.Delay.Queueing { mu = 40. } in
  let plain_kernel () = Dia_core.Greedy.assign p in
  let load_kernel () = Dia_core.Greedy.assign ~delay p in
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (plain_kernel ()));
    ignore (Sys.opaque_identity (load_kernel ()))
  done;
  let plain = ref infinity and load = ref infinity in
  for _ = 1 to !runs do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (plain_kernel ()));
    let t1 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (load_kernel ()));
    let t2 = Unix.gettimeofday () in
    if t1 -. t0 < !plain then plain := t1 -. t0;
    if t2 -. t1 < !load then load := t2 -. t1
  done;
  let plain = !plain *. 1e9 and load = !load *. 1e9 in
  let ratio = load /. plain in
  let verdict = if ratio <= greedy_load_max_ratio then "OK" else "TOO SLOW" in
  Printf.printf "%-32s plain %9.0f ns   mm1:40 %10.0f ns   ratio %5.2fx   [%s]\n%!"
    "assign/greedy-load(n=300,k=20)" plain load ratio verdict;
  if ratio > greedy_load_max_ratio then
    fail "load-aware Greedy takes %.2fx the plain run (gate: %.1fx)" ratio
      greedy_load_max_ratio

(* Journal-overhead gate: the durability layer's per-event tax on the
   churn/steady-state kernel — the same steady Dynamic session the
   bechamel suite holds, with and without a write-ahead append per
   event. Each append encodes an event of the default scenario's trace
   (Trace.to_line), then frames and CRCs it into the buffer flushed to
   the null device, exactly what the soak loop pays between flushes;
   the gate fails if it costs more than --journal-max-overhead of the
   plain batch. *)
let () =
  let nodes = 400 in
  let matrix = Dia_latency.Synthetic.internet_like ~seed:6 nodes in
  let servers = Placement.random ~seed:6 ~k:10 ~n:nodes in
  let events = Dia_runtime.Soak.build_trace Dia_runtime.Soak.default_scenario in
  let make_kernel ~journal =
    let session = Dia_core.Dynamic.create matrix ~servers in
    let live = Queue.create () in
    for i = 0 to 999 do
      Queue.add (Dia_core.Dynamic.join session ~node:(i mod nodes)) live
    done;
    let w =
      if journal then
        Some
          (Dia_runtime.Journal.create ~path:Filename.null ~digest:"gate"
             ~base:0 ())
      else None
    in
    let cursor = ref 0 in
    fun () ->
      for _ = 1 to 50 do
        Dia_core.Dynamic.leave session (Queue.pop live);
        let node = !cursor mod nodes in
        incr cursor;
        Queue.add (Dia_core.Dynamic.join session ~node) live;
        match w with
        | Some w ->
            Dia_runtime.Journal.append w ~cursor:!cursor
              (Dia_runtime.Trace.to_line events.(!cursor mod Array.length events))
        | None -> ()
      done;
      ignore (Dia_core.Dynamic.rebalance ~max_moves:8 session)
  in
  (* The verdict is a ratio of two close numbers, so the kernels are
     timed in interleaved rounds: frequency drift or a noisy neighbour
     lands on both mins instead of skewing one side of the ratio. *)
  let plain_kernel = make_kernel ~journal:false in
  let journal_kernel = make_kernel ~journal:true in
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (plain_kernel ()));
    ignore (Sys.opaque_identity (journal_kernel ()))
  done;
  let plain = ref infinity and journaled = ref infinity in
  for _ = 1 to 3 * !runs do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (plain_kernel ()));
    let t1 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (journal_kernel ()));
    let t2 = Unix.gettimeofday () in
    if t1 -. t0 < !plain then plain := t1 -. t0;
    if t2 -. t1 < !journaled then journaled := t2 -. t1
  done;
  let plain = !plain *. 1e9 and journaled = !journaled *. 1e9 in
  let overhead = (journaled -. plain) /. plain in
  let verdict = if overhead <= !journal_max_overhead then "OK" else "TOO SLOW" in
  Printf.printf
    "%-32s plain %9.0f ns   journaled %9.0f ns   overhead %+5.1f%%   [%s]\n%!"
    "churn/steady-state+journal" plain journaled (100. *. overhead) verdict;
  if overhead > !journal_max_overhead then
    fail "write-ahead journalling costs %.1f%% on the churn kernel (gate: %.0f%%)"
      (100. *. overhead)
      (100. *. !journal_max_overhead)

(* Checkpoint-encode gate: a boundary of a 150k-session weighted soak
   encodes ~150k session lines, so [Checkpoint.encode] must stay at
   least [encode_min_speedup] times faster than its executable spec
   [Checkpoint.encode_reference] on the state such a soak persists at
   its first boundary. Interleaved best-of rounds, like the gates before
   it. *)
let encode_min_speedup = 2.0

let () =
  let module Soak = Dia_runtime.Soak in
  let module Checkpoint = Dia_runtime.Checkpoint in
  let scenario =
    { Soak.default_scenario with Soak.clients = 150_000; coreset_eps = Some 0.05 }
  in
  let config = Soak.default_config in
  let st =
    match Soak.run ~kill_at_event:(config.Soak.checkpoint_every - 1) scenario config with
    | Soak.Killed st -> st
    | Soak.Completed _ -> failwith "speedup: kill_at_event ignored"
  in
  let fast () = Checkpoint.encode st and reference () = Checkpoint.encode_reference st in
  if fast () <> reference () then begin
    Printf.printf "%-32s encode differs from encode_reference   [WRONG]\n%!"
      "checkpoint/encode(150k sessions)";
    fail "Checkpoint.encode differs from encode_reference"
  end
  else begin
    let fast_t = ref infinity and reference_t = ref infinity in
    for _ = 1 to !runs do
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (reference ()));
      let t1 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (fast ()));
      let t2 = Unix.gettimeofday () in
      if t1 -. t0 < !reference_t then reference_t := t1 -. t0;
      if t2 -. t1 < !fast_t then fast_t := t2 -. t1
    done;
    let fast_ns = !fast_t *. 1e9 and reference_ns = !reference_t *. 1e9 in
    let speedup = reference_ns /. fast_ns in
    let verdict = if speedup >= encode_min_speedup then "OK" else "TOO SLOW" in
    Printf.printf "%-32s ref %11.0f ns   encode %9.0f ns   speedup %5.2fx   [%s]\n%!"
      "checkpoint/encode(150k sessions)" reference_ns fast_ns speedup verdict;
    if speedup < encode_min_speedup then
      fail "Checkpoint.encode is only %.2fx faster than encode_reference (gate: %.1fx)"
        speedup encode_min_speedup
  end

let () =
  match List.rev !failures with
  | [] -> ()
  | failed ->
      List.iter (fun message -> prerr_endline ("speedup: " ^ message)) failed;
      Printf.eprintf "speedup: %d gate(s) failed\n" (List.length failed);
      exit 1
