(** Crash recovery: land on the newest verifying checkpoint generation,
    fold the journal tail, prove bit-identity.

    Resuming from generation [g] with the same [state_dir] makes
    {!Soak.run} fold its step over the journaled trace events from [g]'s
    cursor ({!Soak.journal_tail}), then continue from the seeded trace:
    the journal is the input of record, and replay is that fold.
    Recovery picks the generation: the newest whose checksums and digest
    hold, rolling back over corrupt ones. A rollback is recorded as a
    [recovery]-kind {!Event_log} entry in the side-channel file
    [recovery.log] (never the canonical log, which must stay
    bit-identical to the uninterrupted run's). *)

val journal_path : string -> string
(** [state_dir/journal]. *)

val recovery_log_path : string -> string
(** [state_dir/recovery.log] — the rollback side-channel. *)

type restore = {
  generation : (int * Checkpoint.state) option;
      (** the newest verifying generation, or [None] for a fresh restart *)
  skipped : (int * string) list;
      (** newer generations rejected (corrupt or wrong digest), newest
          first, with reasons *)
  resume : Checkpoint.state;
      (** what to resume from: the generation's state, or
          {!Soak.initial} when none verifies *)
  journal_note : string option;
      (** why the journal tail is empty or ends early ({!Soak.journal_tail}) *)
  replayed : int;
      (** length of the tail a resume from [resume] with this [state_dir]
          folds before the seeded trace *)
}

val restore : dir:string -> Soak.scenario -> Soak.config -> restore
(** Scan [dir] and decide where to resume from. Pure inspection apart
    from the side-channel: when the restore had to skip corrupt newer
    generations, a [recovery] entry is appended to {!recovery_log_path}. *)

type verdict = { ok : bool; lines : string list }

(** The end-to-end harness behind [dia soak --verify-recovery]. *)

val verify :
  ?keep:int ->
  state_dir:string ->
  kill_at_event:int ->
  Soak.scenario ->
  Soak.config ->
  verdict
(** Run the scenario uninterrupted; run it again into [state_dir] with
    the plan's disk faults live and a kill after event [kill_at_event];
    {!restore}; check that an intact journal holds every event between
    the restored cursor and the kill; resume exactly as
    [dia soak --resume --state-dir] does (same [state_dir] and [keep],
    so the journal tail is folded); then check that the recovered
    report and event log are bit-identical to the uninterrupted run.
    [lines] is the human-readable transcript. *)
