let version = 3

type state = {
  version : int;
  digest : string;
  cursor : int;
  now : float;
  capacity : int option;
  members : (int * int * int) list;
  standbys : (int * int) list;
  next_id : int;
  failed : int list;
  drift : (int * float) list;
  session_stats : Dia_core.Dynamic.stats;
  sessions : (int * int) list;
  slo : string;
  queue : (int * int) list;
  admitted : int;
  queued : int;
  shed : int;
  drained : int;
  abandoned : int;
  leaves : int;
  crashes : int;
  crashes_skipped : int;
  recoveries : int;
  drifts : int;
  stranded : int;
  repairs : int;
  repair_moves : int;
  max_epoch_moves : int;
  protocol_epochs : int;
  protocol_stalls : int;
  rng_cursor : int;
  lb : float;
  events_since_lb : int;
  checkpoints : int;
  trace_points : (float * float * float) list;
  baseline_points : (float * float * float) list;
  log : Event_log.entry list;
}

let fs = Codec.float_str

(* v3 splits the file into checksummed sections: the scalar block and
   one section per list kind. Every section gets a [crc=NAME:HEX] line
   (even when empty — a wholesale-deleted section must not verify). *)
let list_sections =
  [ "member"; "standby"; "session"; "drift"; "queue"; "trace"; "baseline"; "log" ]

let section_names = "scalars" :: list_sections

let encode_reference s =
  let line b fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  let scalars = Buffer.create 1024 in
  let sline fmt = line scalars fmt in
  sline "digest=%s" s.digest;
  sline "cursor=%d" s.cursor;
  sline "now=%s" (fs s.now);
  sline "capacity=%s"
    (match s.capacity with None -> "none" | Some c -> string_of_int c);
  sline "next_id=%d" s.next_id;
  sline "failed=%s" (String.concat "," (List.map string_of_int s.failed));
  sline "stats=%d,%d,%d" s.session_stats.Dia_core.Dynamic.joins
    s.session_stats.Dia_core.Dynamic.leaves s.session_stats.Dia_core.Dynamic.moves;
  sline "slo=%s" s.slo;
  sline "admitted=%d" s.admitted;
  sline "queued=%d" s.queued;
  sline "shed=%d" s.shed;
  sline "drained=%d" s.drained;
  sline "abandoned=%d" s.abandoned;
  sline "leaves=%d" s.leaves;
  sline "crashes=%d" s.crashes;
  sline "crashes_skipped=%d" s.crashes_skipped;
  sline "recoveries=%d" s.recoveries;
  sline "drifts=%d" s.drifts;
  sline "stranded=%d" s.stranded;
  sline "repairs=%d" s.repairs;
  sline "repair_moves=%d" s.repair_moves;
  sline "max_epoch_moves=%d" s.max_epoch_moves;
  sline "protocol_epochs=%d" s.protocol_epochs;
  sline "protocol_stalls=%d" s.protocol_stalls;
  sline "rng_cursor=%d" s.rng_cursor;
  sline "lb=%s" (fs s.lb);
  sline "events_since_lb=%d" s.events_since_lb;
  sline "checkpoints=%d" s.checkpoints;
  let section name =
    let b = Buffer.create 256 in
    (match name with
    | "member" ->
        List.iter
          (fun (id, node, server) -> line b "member=%d,%d,%d" id node server)
          s.members
    | "standby" ->
        List.iter (fun (id, standby) -> line b "standby=%d,%d" id standby) s.standbys
    | "session" ->
        List.iter
          (fun (session, client) -> line b "session=%d,%d" session client)
          s.sessions
    | "drift" ->
        List.iter
          (fun (server, factor) -> line b "drift=%d,%s" server (fs factor))
          s.drift
    | "queue" ->
        List.iter (fun (session, node) -> line b "queue=%d,%d" session node) s.queue
    | "trace" ->
        List.iter
          (fun (t, objective, ratio) ->
            line b "trace=%s,%s,%s" (fs t) (fs objective) (fs ratio))
          s.trace_points
    | "baseline" ->
        List.iter
          (fun (t, online, resolve) ->
            line b "baseline=%s,%s,%s" (fs t) (fs online) (fs resolve))
          s.baseline_points
    | "log" ->
        List.iter
          (fun e -> line b "log=%s" (Codec.escape (Event_log.to_line e)))
          s.log
    | _ -> assert false);
    b
  in
  let bodies = ("scalars", scalars) :: List.map (fun n -> (n, section n)) list_sections in
  let b = Buffer.create 4096 in
  line b "dia-soak-checkpoint v%d" version;
  List.iter (fun (_, body) -> Buffer.add_buffer b body) bodies;
  List.iter
    (fun (name, body) -> line b "crc=%s:%s" name (Crc.hex (Buffer.contents body)))
    bodies;
  Buffer.add_string b "end\n";
  Buffer.contents b

(* The file image, written in place by the allocation-free {!Codec}
   writers: a boundary of a 150k-session soak writes ~150k lines, where
   a format interpreter and a string per line cost more than the rest of
   the boundary together. *)
type image = { mutable bytes : Bytes.t; mutable len : int }

let reserve img n =
  if img.len + n > Bytes.length img.bytes then begin
    let bytes = Bytes.create (max (img.len + n) (2 * Bytes.length img.bytes)) in
    Bytes.blit img.bytes 0 bytes 0 img.len;
    img.bytes <- bytes
  end

let add_string img s =
  reserve img (String.length s);
  img.len <- Codec.put_string img.bytes img.len s

let add_int img n =
  reserve img 20;
  img.len <- Codec.put_int img.bytes img.len n

let add_char img c =
  reserve img 1;
  Bytes.unsafe_set img.bytes img.len c;
  img.len <- img.len + 1

(* The same bytes as [encode_reference], in one pass: every section is
   written straight into the image and its CRC taken over its byte range. *)
let encode s =
  (* Sized for typical lines, so even a 150k-session image grows at most
     once on its way: every doubling is a fresh major-heap block. *)
  let size =
    let n l = List.length l in
    1024
    + (24 * (n s.members + n s.standbys + n s.sessions + n s.drift + n s.queue))
    + (64 * (n s.trace_points + n s.baseline_points))
    + (96 * n s.log)
  in
  let img = { bytes = Bytes.create size; len = 0 } in
  let str key v = add_string img key; add_string img v; add_char img '\n' in
  let int key n = add_string img key; add_int img n; add_char img '\n' in
  let ints key l =
    add_string img key;
    List.iteri (fun i n -> if i > 0 then add_char img ','; add_int img n) l;
    add_char img '\n'
  in
  (* the list-free forms of [ints] for the per-session lines *)
  let int2 key a b =
    add_string img key; add_int img a; add_char img ','; add_int img b;
    add_char img '\n'
  in
  let int3 key a b c =
    add_string img key; add_int img a; add_char img ','; add_int img b;
    add_char img ','; add_int img c; add_char img '\n'
  in
  let floats3 key (a, b, c) =
    add_string img key;
    add_string img (fs a); add_char img ',';
    add_string img (fs b); add_char img ',';
    add_string img (fs c); add_char img '\n'
  in
  let write_section = function
    | "scalars" ->
        str "digest=" s.digest;
        int "cursor=" s.cursor;
        str "now=" (fs s.now);
        (match s.capacity with
        | None -> str "capacity=" "none"
        | Some c -> int "capacity=" c);
        int "next_id=" s.next_id;
        ints "failed=" s.failed;
        let st = s.session_stats in
        int3 "stats=" st.Dia_core.Dynamic.joins st.leaves st.moves;
        str "slo=" s.slo;
        int "admitted=" s.admitted;
        int "queued=" s.queued;
        int "shed=" s.shed;
        int "drained=" s.drained;
        int "abandoned=" s.abandoned;
        int "leaves=" s.leaves;
        int "crashes=" s.crashes;
        int "crashes_skipped=" s.crashes_skipped;
        int "recoveries=" s.recoveries;
        int "drifts=" s.drifts;
        int "stranded=" s.stranded;
        int "repairs=" s.repairs;
        int "repair_moves=" s.repair_moves;
        int "max_epoch_moves=" s.max_epoch_moves;
        int "protocol_epochs=" s.protocol_epochs;
        int "protocol_stalls=" s.protocol_stalls;
        int "rng_cursor=" s.rng_cursor;
        str "lb=" (fs s.lb);
        int "events_since_lb=" s.events_since_lb;
        int "checkpoints=" s.checkpoints
    | "member" ->
        List.iter (fun (id, node, server) -> int3 "member=" id node server) s.members
    | "standby" -> List.iter (fun (id, standby) -> int2 "standby=" id standby) s.standbys
    | "session" ->
        List.iter (fun (session, client) -> int2 "session=" session client) s.sessions
    | "drift" ->
        List.iter
          (fun (server, factor) ->
            add_string img "drift="; add_int img server; add_char img ',';
            add_string img (fs factor); add_char img '\n')
          s.drift
    | "queue" -> List.iter (fun (session, node) -> int2 "queue=" session node) s.queue
    | "trace" -> List.iter (floats3 "trace=") s.trace_points
    | "baseline" -> List.iter (floats3 "baseline=") s.baseline_points
    | "log" -> List.iter (fun e -> str "log=" (Codec.escape (Event_log.to_line e))) s.log
    | _ -> assert false
  in
  int "dia-soak-checkpoint v" version;
  let ranges =
    List.fold_left
      (fun acc name ->
        let pos = img.len in
        write_section name;
        (name, pos, img.len - pos) :: acc)
      [] section_names
  in
  List.iter
    (fun (name, pos, len) ->
      let crc = Crc.digest_bytes img.bytes ~pos ~len in
      add_string img "crc="; add_string img name; add_char img ':';
      reserve img 8;
      img.len <- Crc.hex_into img.bytes img.len crc;
      add_char img '\n')
    (List.rev ranges);
  add_string img "end\n";
  Bytes.sub_string img.bytes 0 img.len

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let int_of what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail "checkpoint: %s is not an integer (%S)" what s

let split2 what s =
  match String.index_opt s ',' with
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> fail "checkpoint: %s expects two fields (%S)" what s

let split3 what s =
  let a, rest = split2 what s in
  let b, c = split2 what rest in
  (a, b, c)

(* Which checksummed section a content line belongs to — the same
   classification [encode] used to write it, so order-preserving
   re-concatenation reproduces the exact checksummed bytes. *)
let section_of_key key = if List.mem key list_sections then key else "scalars"

(* Verify every v3 section checksum before trusting a single byte of
   content: rebuild each section from the file's lines in order and
   compare with its [crc=] declaration. Corruption is named by section;
   a bad or missing crc line is named by line position. *)
let verify_sections numbered_lines =
  let bodies = Hashtbl.create 16 in
  List.iter (fun name -> Hashtbl.replace bodies name (Buffer.create 256)) section_names;
  let declared = Hashtbl.create 16 in
  List.iter
    (fun (ln, l) ->
      match String.index_opt l '=' with
      | None -> fail "checkpoint: line %d: malformed line %S" ln l
      | Some i -> (
          let key = String.sub l 0 i in
          let value = String.sub l (i + 1) (String.length l - i - 1) in
          if key = "crc" then
            match String.index_opt value ':' with
            | None -> fail "checkpoint: line %d: malformed crc line %S" ln l
            | Some j ->
                let name = String.sub value 0 j in
                let hex = String.sub value (j + 1) (String.length value - j - 1) in
                if not (List.mem name section_names) then
                  fail "checkpoint: line %d: crc for unknown section %S" ln name;
                if Hashtbl.mem declared name then
                  fail "checkpoint: line %d: duplicate crc for section %s" ln name;
                Hashtbl.replace declared name hex
          else
            let body = Hashtbl.find bodies (section_of_key key) in
            Buffer.add_string body (l ^ "\n")))
    numbered_lines;
  List.iter
    (fun name ->
      let body = Buffer.contents (Hashtbl.find bodies name) in
      match Hashtbl.find_opt declared name with
      | None -> fail "checkpoint: missing crc for section %s" name
      | Some hex ->
          let actual = Crc.hex body in
          if actual <> hex then
            fail "checkpoint: section %s corrupt (crc %s, file declares %s)"
              name actual hex)
    section_names

let decode text =
  try
    let numbered =
      String.split_on_char '\n' text
      |> List.mapi (fun i l -> (i + 1, l))
      |> List.filter (fun (_, l) -> String.trim l <> "")
    in
    match numbered with
    | [] -> Error "checkpoint: empty"
    | (_, header) :: rest ->
        (* Only the current format decodes. v1/v2 files predate the
           per-section checksums, so nothing in them can be verified. *)
        if header <> Printf.sprintf "dia-soak-checkpoint v%d" version then
          fail "checkpoint: line 1: unsupported header %S (expected v%d)"
            header version;
        (* A checksummed file must end with exactly the end marker:
           anything after it, or a truncation anywhere before it (which
           necessarily removes the final newline), is corruption. *)
        let n = String.length text in
        if not (n >= 4 && String.sub text (n - 4) 4 = "end\n") then
          fail "checkpoint: truncated (file must end with the end marker)";
        (match List.rev rest with
        | (_, "end") :: _ -> ()
        | _ -> fail "checkpoint: truncated (missing end marker)");
        let rest = List.filter (fun (_, l) -> l <> "end") rest in
        verify_sections rest;
        let scalars = Hashtbl.create 32 in
        let members = ref [] and standbys = ref [] in
        let sessions = ref [] and drift = ref [] in
        let queue = ref [] and trace_points = ref [] in
        let baseline_points = ref [] and log = ref [] in
        List.iter
          (fun (ln, l) ->
            let located = function
              | Bad m -> Bad (Printf.sprintf "%s [line %d]" m ln)
              | e -> e
            in
            try
              match String.index_opt l '=' with
              | None -> fail "checkpoint: line %d: malformed line %S" ln l
              | Some i -> (
                  let key = String.sub l 0 i in
                  let value = String.sub l (i + 1) (String.length l - i - 1) in
                  match key with
                  | "member" ->
                      let a, b, c = split3 "member" value in
                      members :=
                        (int_of "member" a, int_of "member" b, int_of "member" c)
                        :: !members
                  | "standby" ->
                      let a, b = split2 "standby" value in
                      standbys := (int_of "standby" a, int_of "standby" b) :: !standbys
                  | "session" ->
                      let a, b = split2 "session" value in
                      sessions := (int_of "session" a, int_of "session" b) :: !sessions
                  | "drift" ->
                      let a, b = split2 "drift" value in
                      drift := (int_of "drift" a, Codec.float_of_str b) :: !drift
                  | "queue" ->
                      let a, b = split2 "queue" value in
                      queue := (int_of "queue" a, int_of "queue" b) :: !queue
                  | "trace" ->
                      let a, b, c = split3 "trace" value in
                      trace_points :=
                        (Codec.float_of_str a, Codec.float_of_str b,
                         Codec.float_of_str c)
                        :: !trace_points
                  | "baseline" ->
                      let a, b, c = split3 "baseline" value in
                      baseline_points :=
                        (Codec.float_of_str a, Codec.float_of_str b,
                         Codec.float_of_str c)
                        :: !baseline_points
                  | "log" -> (
                      match Event_log.of_line (Codec.unescape value) with
                      | Ok entry -> log := entry :: !log
                      | Error m -> fail "checkpoint: bad log line: %s" m)
                  | "crc" -> ()  (* verified above *)
                  | _ -> Hashtbl.replace scalars key (ln, value))
            with
            | Bad _ as e -> raise (located e)
            | Failure m -> raise (located (Bad m)))
          rest;
        let scalar key =
          match Hashtbl.find_opt scalars key with
          | Some lv -> lv
          | None -> fail "checkpoint: missing field %S" key
        in
        let int key =
          let ln, v = scalar key in
          match int_of_string_opt v with
          | Some i -> i
          | None ->
              fail "checkpoint: %s is not an integer (%S) [line %d]" key v ln
        in
        let str key = snd (scalar key) in
        let flt key =
          let ln, v = scalar key in
          match float_of_string_opt (String.trim v) with
          | Some f -> f
          | None -> fail "checkpoint: %s is not a float (%S) [line %d]" key v ln
        in
        let stats =
          let ln, v = scalar "stats" in
          match
            let a, b, c = split3 "stats" v in
            {
              Dia_core.Dynamic.joins = int_of "stats" a;
              leaves = int_of "stats" b;
              moves = int_of "stats" c;
            }
          with
          | stats -> stats
          | exception Bad m -> fail "%s [line %d]" m ln
        in
        Ok
          {
            version;
            digest = str "digest";
            cursor = int "cursor";
            now = flt "now";
            capacity =
              (match str "capacity" with
              | "none" -> None
              | _ -> Some (int "capacity"));
            members = List.rev !members;
            standbys = List.rev !standbys;
            next_id = int "next_id";
            failed =
              (let ln, v = scalar "failed" in
               match v with
               | "" -> []
               | f -> (
                   match List.map (int_of "failed") (String.split_on_char ',' f) with
                   | l -> l
                   | exception Bad m -> fail "%s [line %d]" m ln));
            drift = List.rev !drift;
            session_stats = stats;
            sessions = List.rev !sessions;
            slo = str "slo";
            queue = List.rev !queue;
            admitted = int "admitted";
            queued = int "queued";
            shed = int "shed";
            drained = int "drained";
            abandoned = int "abandoned";
            leaves = int "leaves";
            crashes = int "crashes";
            crashes_skipped = int "crashes_skipped";
            recoveries = int "recoveries";
            drifts = int "drifts";
            stranded = int "stranded";
            repairs = int "repairs";
            repair_moves = int "repair_moves";
            max_epoch_moves = int "max_epoch_moves";
            protocol_epochs = int "protocol_epochs";
            protocol_stalls = int "protocol_stalls";
            rng_cursor = int "rng_cursor";
            lb = flt "lb";
            events_since_lb = int "events_since_lb";
            checkpoints = int "checkpoints";
            trace_points = List.rev !trace_points;
            baseline_points = List.rev !baseline_points;
            log = List.rev !log;
          }
  with
  | Bad m -> Error m
  | Failure m -> Error m
  | Invalid_argument m -> Error ("checkpoint: " ^ m)

let load path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    text
  with
  | exception Sys_error m -> Error m
  | text -> decode text
