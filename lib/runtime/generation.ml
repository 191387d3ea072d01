let prefix = "ckpt."

let path ~dir n = Filename.concat dir (Printf.sprintf "%s%d" prefix n)

let list ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      (* Only the canonical name [path ~dir n] counts: [int_of_string]
         alone would also read "ckpt.0x10" or "ckpt.007" as a number
         whose [path] is another file. *)
      Array.to_list files
      |> List.filter_map (fun f ->
             let pn = String.length prefix in
             if String.starts_with ~prefix f then
               let suffix = String.sub f pn (String.length f - pn) in
               match int_of_string_opt suffix with
               | Some n when n >= 1 && string_of_int n = suffix -> Some n
               | _ -> None
             else None)
      |> List.sort compare

let latest ~dir = match List.rev (list ~dir) with [] -> None | n :: _ -> Some n

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* The format version a checkpoint file's header line claims, if any. *)
let header_version file =
  match In_channel.with_open_bin file In_channel.input_line with
  | exception Sys_error _ | None -> None
  | Some line -> Scanf.sscanf_opt line "dia-soak-checkpoint v%d%!" Fun.id

(* An older binary resuming into a newer binary's state dir must not
   write its format next to the newer one and then prune it: that would
   silently discard the state the newer binary persisted. *)
let refuse_newer ~dir =
  match latest ~dir with
  | None -> ()
  | Some g -> (
      match header_version (path ~dir g) with
      | Some v when v > Checkpoint.version ->
          invalid_arg
            (Printf.sprintf
               "Generation: %s is a v%d checkpoint; refusing to write the older \
                v%d format over its history"
               (path ~dir g) v Checkpoint.version)
      | _ -> ())

let save ?disk ~dir ~keep state =
  if keep < 1 then invalid_arg "Generation.save: keep must be >= 1";
  refuse_newer ~dir;
  ensure_dir dir;
  let disk = match disk with Some d -> d | None -> Disk.none () in
  let gens = list ~dir in
  let n = match List.rev gens with [] -> 1 | g :: _ -> g + 1 in
  Disk.write_file disk ~path:(path ~dir n) (Checkpoint.encode state);
  (* Prune beyond the retention window. A generation the injector
     refused to rename still consumed number [n] conceptually but left
     no file; pruning goes by the numbers that exist. *)
  List.iter
    (fun g ->
      if g <= n - keep then try Sys.remove (path ~dir g) with Sys_error _ -> ())
    gens;
  n

let newest_verifying ~dir ~digest =
  let rec scan skipped = function
    | [] -> (None, List.rev skipped)
    | g :: older -> (
        match Checkpoint.load (path ~dir g) with
        | Ok st when st.Checkpoint.digest = digest ->
            (Some (g, st), List.rev skipped)
        | Ok st ->
            scan
              ((g, Printf.sprintf "digest mismatch (%s)" st.Checkpoint.digest)
              :: skipped)
              older
        | Error m -> scan ((g, m) :: skipped) older)
  in
  scan [] (List.rev (list ~dir))
