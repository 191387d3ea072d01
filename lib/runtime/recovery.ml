let journal_path dir = Filename.concat dir "journal"
let recovery_log_path dir = Filename.concat dir "recovery.log"

type restore = {
  generation : (int * Checkpoint.state) option;
  skipped : (int * string) list;
  resume : Checkpoint.state;
  journal_note : string option;
  replayed : int;
}

let restore ~dir scenario config =
  let generation, skipped =
    Generation.newest_verifying ~dir ~digest:(Soak.digest scenario config)
  in
  let resume =
    match generation with Some (_, st) -> st | None -> Soak.initial scenario config
  in
  let tail, journal_note = Soak.journal_tail scenario ~dir resume in
  let replayed = List.length tail in
  (* The rollback side-channel: Recovery entries are operator telemetry,
     never part of the canonical soak log (whose bytes must stay
     identical to the uninterrupted run's), so they go to their own file. *)
  if skipped <> [] then begin
    let generation = match generation with Some (g, _) -> g | None -> 0 in
    let entry =
      Event_log.Recovery { generation; skipped = List.length skipped; replayed }
    in
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 (recovery_log_path dir)
    in
    output_string oc (Event_log.to_line { time = resume.now; kind = entry } ^ "\n");
    close_out oc
  end;
  { generation; skipped; resume; journal_note; replayed }

(* --- the end-to-end verification harness ------------------------------ *)

type verdict = { ok : bool; lines : string list }

let verify ?(keep = 3) ~state_dir ~kill_at_event scenario config =
  let lines = ref [] and failed = ref false in
  let line mark name d = lines := Printf.sprintf "%s %-24s %s" mark name d :: !lines in
  let check name ok detail =
    if not ok then failed := true;
    line (if ok then "ok  " else "FAIL") name detail
  in
  let note = line "    " in
  let verdict () = { ok = not !failed; lines = List.rev !lines } in
  let matches base r =
    check "report-bit-identical"
      (Soak.render r = Soak.render base && Soak.csv r = Soak.csv base)
      "render output and objective trace match the uninterrupted run";
    check "log-bit-identical"
      (Event_log.render r.Soak.log = Event_log.render base.Soak.log)
      "event log matches the uninterrupted run byte-for-byte";
    verdict ()
  in
  match Soak.run scenario config with
  | Soak.Killed _ ->
      check "reference-run" false "uninterrupted run reported Killed";
      verdict ()
  | Soak.Completed base -> (
      let disk = Disk.create scenario.fault in
      let faulted =
        Soak.run ~state_dir ~keep ~disk ~kill_at_event scenario config
      in
      note "disk-faults"
        (Printf.sprintf "%d of the plan's disk rules fired"
           (Disk.faults_fired disk));
      match faulted with
      | Soak.Completed r ->
          (* The kill point lay past the end of the trace: nothing to
             recover, but the run must still match the reference. *)
          check "kill-fires" true
            (Printf.sprintf "kill_at_event %d past the last event; run completed"
               kill_at_event);
          matches base r
      | Soak.Killed killed_st -> (
          check "kill-fires" true
            (Printf.sprintf "killed after event %d (cursor %d)" kill_at_event
               killed_st.Checkpoint.cursor);
          let r = restore ~dir:state_dir scenario config in
          check "generation-restored" true
            (match r.generation with
            | Some (g, st) -> Printf.sprintf "ckpt.%d (cursor %d)" g st.Checkpoint.cursor
            | None -> "no verifying generation; restarting from scratch");
          List.iter
            (fun (g, m) -> note "rolled-back-over" (Printf.sprintf "ckpt.%d: %s" g m))
            r.skipped;
          (* The kill flushes the journal, so an intact one must carry
             every event between the restored cursor and the kill: the
             resume below then folds them rather than re-deriving them
             from the seed, and the byte comparisons check that fold. *)
          let lost = killed_st.Checkpoint.cursor - r.resume.Checkpoint.cursor in
          (match r.journal_note with
          | None ->
              check "journal-carries-tail" (r.replayed = lost)
                (Printf.sprintf "%d journaled events, %d expected" r.replayed lost)
          | Some m ->
              note "journal-replay"
                (Printf.sprintf "%d of %d events journaled; %s" r.replayed lost m));
          (* Resume exactly as [dia soak --resume --state-dir] does. *)
          match Soak.run ~state_dir ~keep ~resume_from:r.resume scenario config with
          | Soak.Killed _ ->
              check "resume-completes" false "resumed run reported Killed";
              verdict ()
          | Soak.Completed resumed -> matches base resumed))
