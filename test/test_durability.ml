(* Tests for the durable-recovery layer: the write-ahead journal,
   checkpoint generations, the storage fault injector, the hardened v3
   checkpoint decoder, and the end-to-end recovery verification harness.
   The centrepiece is the boundary-free determinism property: a run
   killed at ANY event index — not just a checkpoint boundary — and
   recovered (newest verifying generation + journal replay) must be
   bit-identical to the uninterrupted run, even while the scenario's
   disk-fault plan corrupts the very files recovery depends on. *)

module Crc = Dia_runtime.Crc
module Disk = Dia_runtime.Disk
module Journal = Dia_runtime.Journal
module Generation = Dia_runtime.Generation
module Checkpoint = Dia_runtime.Checkpoint
module Event_log = Dia_runtime.Event_log
module Recovery = Dia_runtime.Recovery
module Soak = Dia_runtime.Soak
module Trace = Dia_runtime.Trace
module Fault = Dia_sim.Fault

let plan spec =
  match Fault.of_string spec with Ok p -> p | Error m -> failwith m

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dia_durability_%d_%d" (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    dir

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* The same small chaos scenario the runtime tests soak: 40 nodes, 4
   servers, one crash mid-run, checkpoints every 20 events. *)
let small_scenario =
  {
    Soak.default_scenario with
    Soak.seed = 9;
    nodes = 40;
    servers = 4;
    horizon = 60.;
    drift_period = 10.;
    fault = plan "loss:0.1+crash:1@20~45";
  }

let small_config = { Soak.default_config with Soak.checkpoint_every = 20 }

(* Killed on the first checkpoint boundary: the state that checkpoint
   captures. *)
let killed scenario config =
  match
    Soak.run ~kill_at_event:(config.Soak.checkpoint_every - 1) scenario config
  with
  | Soak.Completed _ -> Alcotest.fail "kill_at_event ignored"
  | Soak.Killed st -> st

(* --- Crc --- *)

let test_crc_known_values () =
  (* The CRC-32 check value from the specification. *)
  Alcotest.(check string) "empty" "00000000" (Crc.hex "");
  Alcotest.(check string) "check value" "cbf43926" (Crc.hex "123456789");
  Alcotest.(check bool) "flip detected" true (Crc.digest "a" <> Crc.digest "b")

(* --- Disk: the storage fault injector --- *)

let test_disk_injector_targets_named_ops () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "f" in
  let data = String.init 64 (fun i -> Char.chr (65 + (i mod 26))) in
  let d = Disk.create (plan "torn:2@10+flip:3@4") in
  Alcotest.(check bool) "plan carries disk rules" true (Disk.active d);
  (* op 1: clean atomic write *)
  Disk.write_file d ~path data;
  Alcotest.(check string) "op 1 untouched" data (read_file path);
  (* op 2: torn at byte 10 *)
  Disk.write_file d ~path data;
  Alcotest.(check string) "op 2 torn" (String.sub data 0 10) (read_file path);
  (* op 3: bit flip at byte 4 *)
  Disk.write_file d ~path data;
  let got = read_file path in
  Alcotest.(check int) "op 3 full length" (String.length data)
    (String.length got);
  Alcotest.(check bool) "op 3 flipped exactly byte 4" true
    (got <> data
    && String.sub got 0 4 = String.sub data 0 4
    && String.sub got 5 (String.length data - 5)
       = String.sub data 5 (String.length data - 5));
  Alcotest.(check int) "both faults fired" 2 (Disk.faults_fired d)

let test_disk_injector_rename_crash_and_fsync_loss () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "f" in
  let d = Disk.create (plan "rename:1+fsync:2@3") in
  (* op 1: crash between tmp write and rename — only the tmp survives *)
  Disk.write_file d ~path "first";
  Alcotest.(check bool) "target absent after rename crash" false
    (Sys.file_exists path);
  Alcotest.(check bool) "tmp left behind" true (Sys.file_exists (path ^ ".tmp"));
  (* op 2: rename happens but the fsync'd length is lost *)
  Disk.write_file d ~path "second";
  Alcotest.(check string) "fsync loss keeps only the prefix" "sec"
    (read_file path)

(* --- Journal --- *)

let test_journal_roundtrip () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "journal" in
  let w = Journal.create ~path ~digest:"cafe" ~base:7 () in
  Journal.append w ~cursor:7 "t=1 join session=1\n";
  Journal.append w ~cursor:8 "";
  Journal.append w ~cursor:9 "binary \x00 payload\nwith newlines\n";
  Alcotest.(check int) "appended counts buffered records" 3 (Journal.appended w);
  Journal.close w;
  Journal.close w (* idempotent *);
  match Journal.read path with
  | Error m -> Alcotest.fail m
  | Ok j ->
      Alcotest.(check string) "digest" "cafe" j.Journal.digest;
      Alcotest.(check int) "base" 7 j.Journal.base;
      Alcotest.(check bool) "clean end" true (j.Journal.torn = None);
      Alcotest.(check bool) "records survive byte-exactly" true
        (List.map (fun r -> (r.Journal.cursor, r.Journal.payload)) j.Journal.records
        = [
            (7, "t=1 join session=1\n");
            (8, "");
            (9, "binary \x00 payload\nwith newlines\n");
          ])

let test_journal_torn_tail_keeps_prefix () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "journal" in
  let w = Journal.create ~path ~digest:"d" ~base:0 () in
  Journal.append w ~cursor:0 "alpha\n";
  Journal.append w ~cursor:1 "beta\n";
  Journal.close w;
  let whole = read_file path in
  (* tear mid-way through the second record *)
  write_file path (String.sub whole 0 (String.length whole - 3));
  (match Journal.read path with
  | Error m -> Alcotest.fail m
  | Ok j ->
      Alcotest.(check int) "valid prefix kept" 1 (List.length j.Journal.records);
      Alcotest.(check bool) "tear reported" true (j.Journal.torn <> None));
  (* corrupt the first record's payload: nothing commits *)
  let flip i s =
    String.mapi (fun k c -> if k = i then Char.chr (Char.code c lxor 1) else c) s
  in
  write_file path (flip (String.length whole - 3) whole);
  (match Journal.read path with
  | Error m -> Alcotest.fail m
  | Ok j ->
      Alcotest.(check int) "crc catches the flip" 1 (List.length j.Journal.records);
      Alcotest.(check bool) "tear reported" true (j.Journal.torn <> None));
  (* a destroyed header is a hard error, not a torn journal *)
  write_file path "not a journal";
  (match Journal.read path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage header accepted");
  match Journal.read (Filename.concat dir "absent") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

let test_journal_jtorn_plan_wedges_device () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "journal" in
  let disk = Disk.create (plan "jtorn:2@5") in
  (* flush_every:1 — the header is flush op 1, the first record op 2 *)
  let w = Journal.create ~disk ~flush_every:1 ~path ~digest:"d" ~base:0 () in
  Journal.append w ~cursor:0 "alpha\n";
  Journal.append w ~cursor:1 "beta\n";
  Journal.close w;
  Alcotest.(check int) "the tear fired" 1 (Disk.faults_fired disk);
  match Journal.read path with
  | Error m -> Alcotest.fail m
  | Ok j ->
      Alcotest.(check int) "nothing committed past the tear" 0
        (List.length j.Journal.records);
      Alcotest.(check bool) "tear reported" true (j.Journal.torn <> None)

(* --- Generation --- *)

let test_generation_save_prunes_to_keep () =
  let st = killed small_scenario small_config in
  let dir = fresh_dir () in
  for i = 1 to 5 do
    Alcotest.(check int) "monotonic numbering" i
      (Generation.save ~dir ~keep:3 st)
  done;
  Alcotest.(check (list int)) "last keep survive" [ 3; 4; 5 ]
    (Generation.list ~dir);
  Alcotest.(check (option int)) "latest" (Some 5) (Generation.latest ~dir);
  match Generation.newest_verifying ~dir ~digest:st.Checkpoint.digest with
  | Some (5, st'), [] ->
      Alcotest.(check int) "restored cursor" st.Checkpoint.cursor
        st'.Checkpoint.cursor
  | _ -> Alcotest.fail "newest generation did not verify"

let test_generation_rolls_back_over_corruption () =
  let st = killed small_scenario small_config in
  let dir = fresh_dir () in
  ignore (Generation.save ~dir ~keep:3 st);
  ignore (Generation.save ~dir ~keep:3 st);
  (* flip one byte in the middle of the newest generation *)
  let p5 = Generation.path ~dir 2 in
  let body = read_file p5 in
  let i = String.length body / 2 in
  write_file p5
    (String.mapi
       (fun k c -> if k = i then Char.chr (Char.code c lxor 1) else c)
       body);
  (match Generation.newest_verifying ~dir ~digest:st.Checkpoint.digest with
  | Some (1, _), [ (2, reason) ] ->
      Alcotest.(check bool) "reason pinpoints the corruption" true (reason <> "")
  | _ -> Alcotest.fail "rollback to the older generation did not happen");
  (* a digest mismatch is as disqualifying as corruption *)
  match Generation.newest_verifying ~dir ~digest:"0000" with
  | None, skipped -> Alcotest.(check int) "all rejected" 2 (List.length skipped)
  | Some _, _ -> Alcotest.fail "wrong-digest generation accepted"

(* --- Checkpoint hardening --- *)

let test_checkpoint_rejects_garbage () =
  let bad = [ ""; "hello"; "dia-soak-checkpoint v99\nend\n" ] in
  List.iter
    (fun text ->
      match Checkpoint.decode text with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "garbage accepted: %S" text))
    bad;
  (* junk after the end marker violates the truncation guard *)
  let text = Checkpoint.encode (killed small_scenario small_config) in
  match Checkpoint.decode (text ^ "trailing junk\n") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing junk accepted"

let test_checkpoint_errors_carry_line_positions () =
  let st = killed small_scenario small_config in
  let text = Checkpoint.encode st in
  (* corrupt a scalar value in place: same length, same section lines *)
  let lines = String.split_on_char '\n' text in
  let mangled =
    List.map
      (fun l ->
        if l = Printf.sprintf "cursor=%d" st.Checkpoint.cursor then "cursor=x"
        else l)
      lines
    |> String.concat "\n"
  in
  match Checkpoint.decode mangled with
  | Ok _ -> Alcotest.fail "mangled cursor accepted"
  | Error m ->
      (* the scalar crc catches it first and names the section *)
      Alcotest.(check bool)
        (Printf.sprintf "error names a section or line (%s)" m)
        true
        (let contains sub =
           let n = String.length m and ls = String.length sub in
           let rec go i = i <= n - ls && (String.sub m i ls = sub || go (i + 1)) in
           go 0
         in
         contains "section" || contains "line")

let prop_mutation_fuzzer_never_panics =
  (* Every single-byte flip and every proper truncation of a real v3
     checkpoint must decode to a structured Error — never raise, never
     yield a partial state. *)
  let text =
    lazy (Checkpoint.encode (killed small_scenario small_config))
  in
  QCheck.Test.make ~name:"byte flips and truncations always decode to Error"
    ~count:300
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (pos, truncate) ->
      let text = Lazy.force text in
      let n = String.length text in
      let mutated =
        if truncate then String.sub text 0 (pos mod n)
        else
          String.mapi
            (fun i c ->
              if i = pos mod n then Char.chr (Char.code c lxor 1) else c)
            text
      in
      match Checkpoint.decode mutated with
      | Ok _ -> false
      | Error m -> String.length m > 0
      | exception _ -> false)

let test_save_refuses_to_clobber_newer_version () =
  let st = killed small_scenario small_config in
  let dir = fresh_dir () in
  let future =
    Printf.sprintf "dia-soak-checkpoint v%d\nfrom the future\nend\n"
      (Checkpoint.version + 1)
  in
  write_file (Generation.path ~dir 1) future;
  (* With keep:1 an unguarded save would write ckpt.2 and then prune the
     newer binary's ckpt.1. *)
  (match Generation.save ~dir ~keep:1 st with
  | exception Invalid_argument _ -> ()
  | n -> Alcotest.fail (Printf.sprintf "older writer saved ckpt.%d" n));
  Alcotest.(check (list int)) "nothing written or pruned" [ 1 ] (Generation.list ~dir);
  Alcotest.(check string) "newer file untouched" future
    (read_file (Generation.path ~dir 1));
  (* a same-version history is still extended and pruned *)
  let dir = fresh_dir () in
  ignore (Generation.save ~dir ~keep:1 st);
  Alcotest.(check int) "same version extends" 2 (Generation.save ~dir ~keep:1 st);
  Alcotest.(check (list int)) "and prunes" [ 2 ] (Generation.list ~dir);
  match Checkpoint.load (Generation.path ~dir 2) with
  | Ok st' -> Alcotest.(check int) "reloaded" st.Checkpoint.cursor st'.Checkpoint.cursor
  | Error m -> Alcotest.fail m

let test_generation_names_are_canonical () =
  (* None of these is [path ~dir n] for an [n >= 1]. [int_of_string]
     alone reads the first four as 16, 10, 3 and 7, whose [path] names
     another file. *)
  let st = killed small_scenario small_config in
  let dir = fresh_dir () in
  List.iter
    (fun name -> write_file (Filename.concat dir name) "not a generation\n")
    [
      "ckpt.0x10"; "ckpt.1_0"; "ckpt.+3"; "ckpt.007"; "ckpt.0"; "ckpt.-1"; "ckpt.2.tmp";
    ];
  write_file (Generation.path ~dir 2) (Checkpoint.encode st);
  Alcotest.(check (list int)) "only ckpt.2 is a generation" [ 2 ]
    (Generation.list ~dir);
  (match Generation.newest_verifying ~dir ~digest:st.Checkpoint.digest with
  | Some (2, _), [] -> ()
  | _ -> Alcotest.fail "recovery skipped a bogus generation or missed ckpt.2");
  Alcotest.(check int) "numbering continues from ckpt.2" 3
    (Generation.save ~dir ~keep:3 st)

(* --- Recovery: the end-to-end harness --- *)

(* The full chaos stack: network loss, a server crash, a torn write on
   the second generation and a bit flip on the third — so recovery has
   to roll back over corrupt generations to a verifying one. *)
let faulted_scenario =
  {
    small_scenario with
    Soak.fault = plan "loss:0.1+crash:1@20~45+torn:2@100+flip:3@40";
  }

let test_verify_recovery_with_disk_faults () =
  let dir = fresh_dir () in
  let v =
    Recovery.verify ~state_dir:dir ~kill_at_event:47 faulted_scenario
      small_config
  in
  if not v.Recovery.ok then
    Alcotest.fail (String.concat "\n" v.Recovery.lines);
  (* the rollback was recorded in the side-channel, never the canonical log *)
  let log = read_file (Recovery.recovery_log_path dir) in
  let first = List.hd (String.split_on_char '\n' log) in
  match Event_log.of_line first with
  | Ok { Event_log.kind = Event_log.Recovery { generation; skipped; replayed }; _ }
    ->
      Alcotest.(check bool) "rolled back to a real generation" true
        (generation >= 1);
      Alcotest.(check bool) "skipped at least the torn one" true (skipped >= 1);
      Alcotest.(check bool) "journal covered the tail" true (replayed >= 0)
  | Ok _ -> Alcotest.fail "recovery.log entry has the wrong kind"
  | Error m -> Alcotest.fail m

let test_verify_recovery_all_generations_corrupt () =
  (* Tear every generation the killed run manages to write: recovery
     must fall back to a fresh restart and still reproduce the
     uninterrupted run bit-for-bit. *)
  let scenario =
    {
      small_scenario with
      Soak.fault = plan "loss:0.1+crash:1@20~45+torn:1@30+torn:2@30+torn:3@30";
    }
  in
  let dir = fresh_dir () in
  let v = Recovery.verify ~state_dir:dir ~kill_at_event:47 scenario small_config in
  if not v.Recovery.ok then Alcotest.fail (String.concat "\n" v.Recovery.lines)

let test_verify_recovery_kill_at_first_event () =
  let dir = fresh_dir () in
  let v =
    Recovery.verify ~state_dir:dir ~kill_at_event:0 faulted_scenario
      small_config
  in
  if not v.Recovery.ok then Alcotest.fail (String.concat "\n" v.Recovery.lines)

let test_verify_recovery_kill_past_end () =
  let dir = fresh_dir () in
  let v =
    Recovery.verify ~state_dir:dir ~kill_at_event:100_000 faulted_scenario
      small_config
  in
  if not v.Recovery.ok then Alcotest.fail (String.concat "\n" v.Recovery.lines)

let prop_boundary_free_recovery_bit_identical =
  (* Satellite-3 acceptance: restore + journal replay is bit-identical
     for an ARBITRARY kill event index — including 0 and past-the-end —
     across plain, load-latency (--delay) and weighted/coreset soaks,
     with the disk-fault plan live. *)
  QCheck.Test.make
    ~name:"recovery bit-identical at any kill point (plain/delay/coreset)"
    ~count:9
    QCheck.(triple (int_bound 1_000) (int_bound 130) (int_range 0 2))
    (fun (seed, kill_at_event, mode) ->
      let scenario =
        match mode with
        | 0 -> { faulted_scenario with Soak.seed }
        | 1 ->
            {
              faulted_scenario with
              Soak.seed;
              delay = Some (Dia_core.Delay.Queueing { mu = 12. });
            }
        | _ ->
            {
              faulted_scenario with
              Soak.seed;
              clients = 2_000;
              coreset_eps = Some 0.2;
            }
      in
      let dir = fresh_dir () in
      let v = Recovery.verify ~state_dir:dir ~kill_at_event scenario small_config in
      v.Recovery.ok)

(* --- kills on a checkpoint boundary --- *)

let test_boundary_kill_returns_the_checkpoint () =
  (* The save comes before the kill check, so a kill on the last event of
     the n-th window returns exactly what ckpt.n holds — and, without a
     state dir, the same state: the kill/resume tests that run without
     one still resume from a checkpoint. *)
  List.iter
    (fun n ->
      let kill_at_event = (n * small_config.Soak.checkpoint_every) - 1 in
      let dir = fresh_dir () in
      match
        ( Soak.run ~state_dir:dir ~kill_at_event small_scenario small_config,
          Soak.run ~kill_at_event small_scenario small_config )
      with
      | Soak.Killed st, Soak.Killed bare ->
          Alcotest.(check (option int))
            (Printf.sprintf "kill %d: ckpt.%d is the newest" n n)
            (Some n) (Generation.latest ~dir);
          Alcotest.(check string)
            (Printf.sprintf "kill %d: state is ckpt.%d byte for byte" n n)
            (read_file (Generation.path ~dir n))
            (Checkpoint.encode st);
          Alcotest.(check string)
            (Printf.sprintf "kill %d: same state without a state dir" n)
            (Checkpoint.encode st) (Checkpoint.encode bare)
      | _ -> Alcotest.fail "kill_at_event ignored")
    [ 1; 2; 3 ]

(* --- the journal is the input of record --- *)

(* Killed after event 30 with checkpoints every 20: the restore lands on
   cursor 20 and the journal tail 20..30 holds the drift at event 22. *)
let journal_state_dir () =
  let dir = fresh_dir () in
  (match Soak.run ~state_dir:dir ~kill_at_event:30 small_scenario small_config with
  | Soak.Killed _ -> ()
  | Soak.Completed _ -> Alcotest.fail "kill_at_event ignored");
  dir

(* Rewrite the journal through the writer (so every record stays
   CRC-valid) with each Drift's factor forged to [factor] (and its server
   to [server], if given), optionally under another digest or without the
   record at cursor [drop]. *)
let forge_journal ?digest ?(drop = -1) ?(factor = 0.5) ?server dir =
  let path = Recovery.journal_path dir in
  match Journal.read path with
  | Error m -> Alcotest.fail m
  | Ok j ->
      let w =
        Journal.create ~path
          ~digest:(Option.value ~default:j.Journal.digest digest)
          ~base:j.Journal.base ()
      in
      List.iter
        (fun { Journal.cursor; payload } ->
          let payload =
            match Trace.of_line payload with
            | Ok ({ Trace.kind = Trace.Drift d; _ } as e) ->
                let server = Option.value ~default:d.server server in
                Trace.to_line { e with Trace.kind = Trace.Drift { server; factor } }
            | _ -> payload
          in
          if cursor <> drop then Journal.append w ~cursor payload)
        j.Journal.records;
      Journal.close w

(* Restore and resume exactly as [dia soak --resume --state-dir] does. *)
let resume dir =
  let r = Recovery.restore ~dir small_scenario small_config in
  match
    Soak.run ~state_dir:dir ~keep:3 ~resume_from:r.Recovery.resume small_scenario
      small_config
  with
  | Soak.Completed report -> (r, report)
  | Soak.Killed _ -> Alcotest.fail "resumed run killed"

let reference () =
  match Soak.run small_scenario small_config with
  | Soak.Completed r -> r
  | Soak.Killed _ -> Alcotest.fail "reference run killed"

let test_resume_folds_the_journal () =
  let dir = journal_state_dir () in
  forge_journal dir;
  let r, resumed = resume dir in
  Alcotest.(check (option int)) "restored at the boundary" (Some 20)
    (Option.map (fun (_, st) -> st.Checkpoint.cursor) r.Recovery.generation);
  Alcotest.(check int) "events 20..30 replayed from the journal" 11 r.Recovery.replayed;
  Alcotest.(check (option string)) "the tail ran to the end" None r.Recovery.journal_note;
  let has_forged (report : Soak.report) =
    List.exists
      (fun e -> e.Event_log.kind = Event_log.Drift { server = 2; factor = 0.5 })
      report.Soak.log
  in
  Alcotest.(check bool) "the seed never draws the forged factor" false
    (has_forged (reference ()));
  Alcotest.(check bool) "the resumed log applied the journaled factor" true
    (has_forged resumed)

let test_resume_falls_back_to_the_trace () =
  (* Every spoiled journal still carries the forged drift, so
     bit-identity with the reference proves the resume ignored it. *)
  let base = reference () in
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (name, spoil, reason, replayed) ->
      let dir = journal_state_dir () in
      spoil dir;
      let r, resumed = resume dir in
      Alcotest.(check int) (name ^ ": events replayed") replayed r.Recovery.replayed;
      (match r.Recovery.journal_note with
      | Some note when contains ~sub:reason note -> ()
      | note ->
          Alcotest.fail
            (Printf.sprintf "%s: note %s does not name %S" name
               (Option.value ~default:"<none>" note) reason));
      Alcotest.(check string) (name ^ ": report") (Soak.render base)
        (Soak.render resumed);
      Alcotest.(check string) (name ^ ": log")
        (Event_log.render base.Soak.log)
        (Event_log.render resumed.Soak.log))
    [
      ("gap at the cursor", (fun dir -> forge_journal ~drop:20 dir), "gap", 0);
      ( "wrong digest",
        (fun dir -> forge_journal ~digest:(String.make 32 '0') dir),
        "digest",
        0 );
      (* The drift sits at cursor 22: events 20 and 21 still fold. *)
      ( "drift server out of range",
        (fun dir -> forge_journal ~server:small_scenario.Soak.servers dir),
        "bad record at cursor 22: server",
        2 );
      ("drift factor nan", (fun dir -> forge_journal ~factor:nan dir), "drift factor", 2);
      ("drift factor zero", (fun dir -> forge_journal ~factor:0. dir), "drift factor", 2);
      ( "v1 header",
        (fun dir ->
          forge_journal dir;
          let path = Recovery.journal_path dir in
          let text = read_file path in
          let v2 = "dia-soak-journal v2" in
          Alcotest.(check string) "current magic" v2
            (String.sub text 0 (String.length v2));
          write_file path
            ("dia-soak-journal v1"
            ^ String.sub text (String.length v2)
                (String.length text - String.length v2))),
        "unsupported header",
        0 );
    ]

let test_fresh_run_ignores_the_journal () =
  (* The forged drift sits in the directory's journal; only a resume
     folds it, so a fresh run into the same directory matches the
     reference. *)
  let dir = journal_state_dir () in
  forge_journal dir;
  let base = reference () in
  match Soak.run ~state_dir:dir small_scenario small_config with
  | Soak.Killed _ -> Alcotest.fail "fresh run killed"
  | Soak.Completed r ->
      Alcotest.(check string) "report" (Soak.render base) (Soak.render r);
      Alcotest.(check string) "log" (Event_log.render base.Soak.log)
        (Event_log.render r.Soak.log)

(* --- checkpoint boundaries --- *)

(* Pre-populated sessions hold the ids -clients..-1 and no trace event
   names them, so a capture walks that range instead of sorting every
   session; a checkpoint holding any other negative id is refused before
   such a walk could drop it. *)
let test_resume_refuses_foreign_negative_sid () =
  let scenario = { small_scenario with Soak.clients = 5 } in
  let st = killed scenario small_config in
  List.iter
    (fun sid ->
      let st =
        { st with Checkpoint.sessions = List.sort compare ((sid, 0) :: st.Checkpoint.sessions) }
      in
      match Soak.run ~resume_from:st scenario small_config with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "session %d outside -5..-1 accepted" sid))
    [ -6; -1_000; min_int ]

(* A fresh run and a resume both write the journal; neither may truncate
   it when the state dir's newest generation is a newer binary's format. *)
let test_run_refuses_newer_state_dir_before_the_journal () =
  let dir = journal_state_dir () in
  let future =
    Printf.sprintf "dia-soak-checkpoint v%d\nfrom the future\nend\n"
      (Checkpoint.version + 1)
  in
  write_file (Generation.path ~dir 1) future;
  let journal = read_file (Recovery.journal_path dir) in
  (match Soak.run ~state_dir:dir small_scenario small_config with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ran over a newer binary's state dir");
  Alcotest.(check string) "journal untouched" journal
    (read_file (Recovery.journal_path dir));
  Alcotest.(check string) "newer generation untouched" future
    (read_file (Generation.path ~dir 1));
  Alcotest.(check (list int)) "nothing written or pruned" [ 1 ] (Generation.list ~dir)

(* Every kill state lists its sessions strictly ascending by id: the
   order the checkpoint format has always had. The capacitated scenario
   strands pre-populated sessions when its server crashes, so the walk
   over -clients..-1 must skip the holes they leave. *)
let test_captured_sessions_ascend () =
  let stranding = { small_scenario with Soak.clients = 30; capacity = Some 10 } in
  let weighted = { small_scenario with Soak.clients = 500; coreset_eps = Some 0.05 } in
  List.iter
    (fun (name, scenario, holes_expected) ->
      let events = Array.length (Soak.build_trace scenario) in
      let holes = ref 0 in
      for kill_at_event = 0 to events - 1 do
        match Soak.run ~kill_at_event scenario small_config with
        | Soak.Completed _ -> Alcotest.fail "kill_at_event ignored"
        | Soak.Killed st ->
            let sids = List.map fst st.Checkpoint.sessions in
            let rec ascending = function
              | a :: (b :: _ as rest) -> a < b && ascending rest
              | _ -> true
            in
            if not (ascending sids) then
              Alcotest.fail (Printf.sprintf "%s: kill %d: sessions out of order" name kill_at_event);
            let prepop = List.length (List.filter (fun sid -> sid < 0) sids) in
            if prepop < scenario.Soak.clients then incr holes
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s: pre-populated holes seen" name)
        holes_expected (!holes > 0))
    [ ("capacitated classic", stranding, true); ("weighted", weighted, false) ]

(* [encode] against its executable spec, on states no soak produces:
   extreme ints, empty sections, non-finite and subnormal floats, and
   strings holding the escape characters. *)
let gen_checkpoint_state =
  let open QCheck.Gen in
  let int =
    frequency [ (4, small_signed_int); (2, int); (1, oneofl [ min_int; max_int; 0; -1 ]) ]
  in
  let float =
    frequency
      [
        (2, float);
        (2, map Int64.float_of_bits ui64);
        ( 1,
          oneofl
            [ nan; -.nan; infinity; neg_infinity; 0.; -0.; 5e-324; -2.5e-310; Float.min_float ]
        );
      ]
  in
  let text = oneof [ string_printable; oneofl [ ""; "a\nb"; "back\\slash"; "\\n\n\\" ] ] in
  let items g = frequency [ (1, return []); (3, list_size (int_bound 6) g) ] in
  let level = oneofl Dia_runtime.Slo.[ Healthy; Degraded; Critical ] in
  let entry =
    let+ time = float
    and+ kind =
      oneof
        [
          (let+ session = int and+ client = int and+ server = int in
           Event_log.Join { session; client; server });
          (let+ server = int and+ factor = float in Event_log.Drift { server; factor });
          (let+ from_ = level and+ to_ = level and+ ratio = float and+ objective = text in
           Event_log.Transition { from_; to_; ratio; objective });
          (let+ attempt = int and+ stalled = bool and+ moves = int and+ applied = bool in
           Event_log.Protocol_repair { attempt; stalled; moves; applied });
          map (fun id -> Event_log.Checkpoint { id }) int;
        ]
    in
    { Event_log.time; kind }
  in
  let+ n = array_repeat 26 int
  and+ now = float
  and+ lb = float
  and+ digest = text
  and+ slo = text
  and+ capacity = opt int
  and+ failed = items int
  and+ members = items (triple int int int)
  and+ standbys = items (pair int int)
  and+ drift = items (pair int float)
  and+ sessions = items (pair int int)
  and+ queue = items (pair int int)
  and+ trace_points = items (triple float float float)
  and+ baseline_points = items (triple float float float)
  and+ log = items entry in
  {
    Checkpoint.version = Checkpoint.version;
    digest; cursor = n.(0); now; capacity; members; standbys; next_id = n.(1); failed;
    drift;
    session_stats = { Dia_core.Dynamic.joins = n.(2); leaves = n.(3); moves = n.(4) };
    sessions; slo; queue; admitted = n.(5); queued = n.(6); shed = n.(7);
    drained = n.(8); abandoned = n.(9); leaves = n.(10); crashes = n.(11);
    crashes_skipped = n.(12); recoveries = n.(13); drifts = n.(14); stranded = n.(15);
    repairs = n.(16); repair_moves = n.(17); max_epoch_moves = n.(18);
    protocol_epochs = n.(19); protocol_stalls = n.(20); rng_cursor = n.(21); lb;
    events_since_lb = n.(22); checkpoints = n.(23); trace_points; baseline_points; log;
  }

let prop_encode_matches_reference =
  QCheck.Test.make ~name:"encode writes the bytes of encode_reference" ~count:300
    (QCheck.make ~print:Checkpoint.encode_reference gen_checkpoint_state)
    (fun st -> Checkpoint.encode st = Checkpoint.encode_reference st)

(* The state the optimisation is for: a weighted soak of 150k
   pre-populated sessions, killed on its first checkpoint boundary. *)
let test_encode_matches_reference_at_scale () =
  let scenario =
    { Soak.default_scenario with Soak.clients = 150_000; coreset_eps = Some 0.05 }
  in
  let st = killed scenario Soak.default_config in
  Alcotest.(check int) "every session captured" 150_000
    (List.length (List.filter (fun (sid, _) -> sid < 0) st.Checkpoint.sessions));
  Alcotest.(check bool) "same bytes" true
    (Checkpoint.encode st = Checkpoint.encode_reference st)

(* --- the disk-fault DSL --- *)

let test_disk_dsl_roundtrip () =
  let spec = "torn:2@100+flip:3@40+fsync:1@8+rename:2+jtorn:1@5" in
  Alcotest.(check string) "disk atoms round-trip" spec
    (Fault.to_string (plan spec));
  Alcotest.(check int) "all five schedule" 5
    (List.length (Fault.disk_schedule (plan spec)));
  (* splitting a mixed plan: disk rules never leak into the network view *)
  let mixed = plan "loss:0.1+crash:1@20~45+torn:2@100" in
  Alcotest.(check bool) "network view drops disk atoms" true
    (Fault.equal (Fault.network_rules mixed) (plan "loss:0.1+crash:1@20~45"));
  Alcotest.(check bool) "disk view keeps only disk atoms" true
    (Fault.equal (Fault.disk_rules mixed) (plan "torn:2@100"));
  match Fault.of_string "torn:0@5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "op 0 accepted"

let suite =
  [
    Alcotest.test_case "crc32 known values" `Quick test_crc_known_values;
    Alcotest.test_case "disk injector targets named write ops" `Quick
      test_disk_injector_targets_named_ops;
    Alcotest.test_case "disk injector rename crash and fsync loss" `Quick
      test_disk_injector_rename_crash_and_fsync_loss;
    Alcotest.test_case "journal round-trips binary payloads" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal torn tail keeps the valid prefix" `Quick
      test_journal_torn_tail_keeps_prefix;
    Alcotest.test_case "jtorn plan wedges the journal device" `Quick
      test_journal_jtorn_plan_wedges_device;
    Alcotest.test_case "generations prune to keep" `Quick
      test_generation_save_prunes_to_keep;
    Alcotest.test_case "recovery rolls back over corrupt generations" `Quick
      test_generation_rolls_back_over_corruption;
    Alcotest.test_case "checkpoint decoder rejects garbage" `Quick
      test_checkpoint_rejects_garbage;
    Alcotest.test_case "checkpoint errors carry line positions" `Quick
      test_checkpoint_errors_carry_line_positions;
    QCheck_alcotest.to_alcotest prop_mutation_fuzzer_never_panics;
    Alcotest.test_case "save refuses to clobber a newer version" `Quick
      test_save_refuses_to_clobber_newer_version;
    Alcotest.test_case "verify-recovery passes under disk faults" `Quick
      test_verify_recovery_with_disk_faults;
    Alcotest.test_case "fresh restart when every generation is corrupt" `Quick
      test_verify_recovery_all_generations_corrupt;
    Alcotest.test_case "kill at event 0 recovers" `Quick
      test_verify_recovery_kill_at_first_event;
    Alcotest.test_case "kill past the end still matches" `Quick
      test_verify_recovery_kill_past_end;
    QCheck_alcotest.to_alcotest prop_boundary_free_recovery_bit_identical;
    Alcotest.test_case "a boundary kill returns the checkpoint it wrote" `Quick
      test_boundary_kill_returns_the_checkpoint;
    Alcotest.test_case "resume folds the journaled events" `Quick
      test_resume_folds_the_journal;
    Alcotest.test_case "unusable journal falls back to the seeded trace" `Quick
      test_resume_falls_back_to_the_trace;
    Alcotest.test_case "a fresh run ignores an old journal" `Quick
      test_fresh_run_ignores_the_journal;
    Alcotest.test_case "disk-fault DSL round-trips and splits" `Quick
      test_disk_dsl_roundtrip;
    Alcotest.test_case "generation names are canonical decimals" `Quick
      test_generation_names_are_canonical;
    Alcotest.test_case "resume refuses a foreign negative session id" `Quick
      test_resume_refuses_foreign_negative_sid;
    Alcotest.test_case "a newer state dir is refused before the journal" `Quick
      test_run_refuses_newer_state_dir_before_the_journal;
    Alcotest.test_case "captured sessions ascend by id" `Quick
      test_captured_sessions_ascend;
    QCheck_alcotest.to_alcotest prop_encode_matches_reference;
    Alcotest.test_case "encode matches its reference on 150k sessions" `Quick
      test_encode_matches_reference_at_scale;
  ]
