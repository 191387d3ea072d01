let magic = "dia-soak-journal v2"

(* --- writer ----------------------------------------------------------- *)

type writer = {
  oc : out_channel;
  disk : Disk.t;
  buf : Buffer.t;
  scratch : Bytes.t;  (* per-record header framing, allocation-free *)
  flush_every : int;
  mutable pending : int;  (* records buffered since the last flush *)
  mutable appended : int;
  mutable closed : bool;
}

let flush w =
  if (not w.closed) && Buffer.length w.buf > 0 then begin
    (if Disk.journal_passthrough w.disk then begin
       Buffer.output_buffer w.oc w.buf;
       Stdlib.flush w.oc
     end
     else
       match Disk.journal_chunk w.disk (Buffer.contents w.buf) with
       | None -> ()  (* device wedged: the chunk never reaches the file *)
       | Some chunk ->
           output_string w.oc chunk;
           Stdlib.flush w.oc);
    Buffer.clear w.buf;
    w.pending <- 0
  end

let create ?disk ?(flush_every = 32) ~path ~digest ~base () =
  if flush_every < 1 then invalid_arg "Journal.create: flush_every must be >= 1";
  let disk = match disk with Some d -> d | None -> Disk.none () in
  let w =
    {
      oc = open_out_bin path;
      disk;
      buf = Buffer.create 4096;
      (* "rec cursor=" + 20 digits + " len=" + 20 digits + " crc=" + 8
         hex + '\n' tops out at 70 bytes *)
      scratch = Bytes.create 80;
      flush_every;
      pending = 0;
      appended = 0;
      closed = false;
    }
  in
  Buffer.add_string w.buf
    (Printf.sprintf "%s\ndigest=%s\nbase=%d\n" magic digest base);
  (* The header is its own flush (journal op 1), so a [jtorn:1@B] plan
     can tear it — recovery must survive even that. *)
  flush w;
  w

(* The per-event hot path: the header is framed by hand into the scratch
   bytes — zero allocations per record. *)
let append w ~cursor payload =
  if w.closed then invalid_arg "Journal.append: writer is closed";
  if cursor < 0 then invalid_arg "Journal.append: negative cursor";
  let s = w.scratch in
  let pos = Codec.put_int s (Codec.put_string s 0 "rec cursor=") cursor in
  let pos = Codec.put_int s (Codec.put_string s pos " len=") (String.length payload) in
  let pos = Crc.hex_into s (Codec.put_string s pos " crc=") (Crc.digest payload) in
  Bytes.unsafe_set s pos '\n';
  let b = w.buf in
  Buffer.add_subbytes b s 0 (pos + 1);
  Buffer.add_string b payload;
  Buffer.add_char b '\n';
  w.appended <- w.appended + 1;
  w.pending <- w.pending + 1;
  if w.pending >= w.flush_every then flush w

let appended w = w.appended

let close w =
  if not w.closed then begin
    flush w;
    w.closed <- true;
    close_out w.oc
  end

(* --- reader ----------------------------------------------------------- *)

type record = { cursor : int; payload : string }

type journal = {
  digest : string;
  base : int;
  records : record list;
  torn : string option;
}

(* One line starting at [pos]; [None] when no newline follows (a torn
   header is indistinguishable from a torn record and treated the same). *)
let line_at text pos =
  if pos >= String.length text then None
  else
    match String.index_from_opt text pos '\n' with
    | None -> None
    | Some nl -> Some (String.sub text pos (nl - pos), nl + 1)

let parse_kv ~key s =
  let prefix = key ^ "=" in
  let n = String.length prefix in
  if String.length s > n && String.sub s 0 n = prefix then
    Some (String.sub s n (String.length s - n))
  else None

(* Parse records from [pos] until the first torn/corrupt one: the valid
   prefix is the journal's committed content; everything after the first
   bad byte is an uncommitted tail (batched appends mean a crash can
   lose or tear the last chunk — never anything before it). *)
let rec parse_records text pos acc =
  if pos >= String.length text then (List.rev acc, None)
  else
    let torn fmt =
      Printf.ksprintf (fun m -> (List.rev acc, Some m)) fmt
    in
    match line_at text pos with
    | None -> torn "torn record header at byte %d" pos
    | Some (header, body_pos) -> (
        match String.split_on_char ' ' header with
        | [ "rec"; c; l; crc ] -> (
            match
              ( Option.bind (parse_kv ~key:"cursor" c) int_of_string_opt,
                Option.bind (parse_kv ~key:"len" l) int_of_string_opt,
                parse_kv ~key:"crc" crc )
            with
            | Some cursor, Some len, Some crc when len >= 0 ->
                if body_pos + len + 1 > String.length text then
                  torn "torn payload at byte %d (%d of %d+1 bytes)" body_pos
                    (String.length text - body_pos)
                    len
                else
                  let payload = String.sub text body_pos len in
                  if text.[body_pos + len] <> '\n' then
                    torn "missing payload terminator at byte %d" (body_pos + len)
                  else if Crc.hex payload <> crc then
                    torn "crc mismatch at byte %d (record cursor=%d)" pos cursor
                  else
                    parse_records text
                      (body_pos + len + 1)
                      ({ cursor; payload } :: acc)
            | _ -> torn "malformed record header at byte %d: %S" pos header)
        | _ -> torn "malformed record header at byte %d: %S" pos header)

let parse text =
  match line_at text 0 with
  | Some (m, pos) when m = magic -> (
      match line_at text pos with
      | None -> Error "journal: torn header (no digest line)"
      | Some (dline, pos) -> (
          match parse_kv ~key:"digest" dline with
          | None -> Error (Printf.sprintf "journal: expected digest=, got %S" dline)
          | Some digest -> (
              match line_at text pos with
              | None -> Error "journal: torn header (no base line)"
              | Some (bline, pos) -> (
                  match Option.bind (parse_kv ~key:"base" bline) int_of_string_opt with
                  | None ->
                      Error (Printf.sprintf "journal: expected base=, got %S" bline)
                  | Some base ->
                      let records, torn = parse_records text pos [] in
                      Ok { digest; base; records; torn }))))
  | Some (other, _) ->
      Error (Printf.sprintf "journal: unsupported header %S" other)
  | None -> Error "journal: empty or headerless file"

let read path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    text
  with
  | exception Sys_error m -> Error m
  | text -> parse text
