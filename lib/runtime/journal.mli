(** The append-only write-ahead input journal.

    A journal records, per trace-event cursor, the {!Trace} event the
    soak is about to apply ({!Trace.to_line}): the run's input of
    record, which a resume folds ({!Soak.journal_tail}) before it goes
    on with the seeded trace. This module only frames opaque payloads.

    {b Format} (text-framed, binary-safe payloads):
    {v
    dia-soak-journal v2
    digest=<scenario/config digest>
    base=<first cursor this journal covers>
    rec cursor=<i> len=<n> crc=<crc32 of payload, 8 hex>
    <exactly n payload bytes>\n
    ...
    v}

    {b Durability model.} Appends are buffered and flushed to the OS in
    batches ([flush_every] records, plus every explicit {!flush} and
    {!close}); no fsync is issued. A crash can therefore lose or tear
    the {e last flushed chunk and everything after it} — never a prefix
    — and the reader treats the first invalid byte as the end of the
    committed journal ({!journal.torn}). The events a crash swallowed
    come from the seeded trace instead, so a lost tail never costs
    correctness. *)

(** {2 Writing} *)

type writer

val create :
  ?disk:Disk.t ->
  ?flush_every:int ->
  path:string ->
  digest:string ->
  base:int ->
  unit ->
  writer
(** Create (truncate) the journal at [path] and write its header —
    which is the first flush, so a [jtorn:1@B] plan tears it. [base] is
    the cursor of the first event this journal covers (0 for a fresh
    run, the checkpoint cursor on resume). [flush_every] batches that
    many records per flush (default 32).

    @raise Invalid_argument if [flush_every < 1]. *)

val append : writer -> cursor:int -> string -> unit
(** Append one record: the encoded trace event at [cursor].
    Buffered; flushed every [flush_every] records.

    @raise Invalid_argument on a closed writer. *)

val flush : writer -> unit
(** Flush buffered records through the injector to the OS. *)

val appended : writer -> int
(** Records appended so far (including still-buffered ones). *)

val close : writer -> unit
(** Flush and close. Idempotent. *)

(** {2 Reading} *)

type record = { cursor : int; payload : string }

type journal = {
  digest : string;
  base : int;
  records : record list;  (** the valid prefix, in append order *)
  torn : string option;
      (** why reading stopped early ([None] = clean end of file); the
          records before the tear are still good *)
}

val read : string -> (journal, string) result
(** Read and parse a journal file. A torn or corrupt {e record} ends
    parsing with the valid prefix (see [torn]); a missing file or an
    unreadable {e header} is an [Error]. Never raises. *)
