(** Checkpoint generations: a bounded history of [ckpt.N] files.

    A single checkpoint file is a single point of failure — the torn
    write that corrupts it takes the whole recovery story with it.
    Generations keep the last [keep] checkpoints under distinct,
    monotonically numbered names ([ckpt.1], [ckpt.2], …), each written
    atomically (through the {!Disk} injector, so storage-fault plans
    apply); recovery scans from the newest down and restores the first
    one that verifies — its v3 section CRCs, its [end] marker, and its
    scenario digest ({!newest_verifying}) — falling back over corrupt
    generations instead of failing. An older generation only means a
    longer journal suffix to replay; it never costs correctness. *)

val path : dir:string -> int -> string
(** The on-disk path of generation [n]. *)

val list : dir:string -> int list
(** Generation numbers present in [dir], ascending. Only canonical
    names count — [ckpt.] and a decimal [n >= 1] without sign or leading
    zeros, exactly [path ~dir n]. A missing directory is just empty. *)

val latest : dir:string -> int option
(** The newest generation number present, if any. *)

val ensure_dir : string -> unit
(** Create the state directory if it does not exist yet (single level). *)

val refuse_newer : dir:string -> unit
(** Check that an older binary may write into [dir]: nothing happens
    unless the newest generation's header claims a {e newer} format
    version than {!Checkpoint.version}. {!save} and a soak run with a
    state dir both call it before they write anything — the soak before
    its journal truncates the file.

    @raise Invalid_argument naming that generation otherwise. *)

val save : ?disk:Disk.t -> dir:string -> keep:int -> Checkpoint.state -> int
(** Write the state as the next generation (creating [dir] if needed)
    and prune generations older than the [keep] most recent. Returns the
    new generation number. With [disk], the write goes through the fault
    injector — the produced file may be corrupt or absent by design.

    @raise Invalid_argument if [keep < 1], or if {!refuse_newer} does —
    an old binary must never write next to, and then prune, the state a
    newer one persisted. Nothing is written or pruned then. *)

val newest_verifying :
  dir:string -> digest:string -> (int * Checkpoint.state) option * (int * string) list
(** Scan generations newest-first for one that fully verifies and
    matches the scenario [digest]. Returns that generation (or [None]
    when none verifies) and the skipped newer generations with the
    reason each was rejected, newest first. *)
