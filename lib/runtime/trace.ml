type kind =
  | Join of { session : int; node : int }
  | Leave of { session : int }
  | Crash of { server : int }
  | Recover of { server : int }
  | Drift of { server : int; factor : float }

type event = { time : float; kind : kind }

type t = event array

let churn ~seed ~nodes ~rate ~mean_lifetime ~horizon =
  if nodes <= 0 then invalid_arg "Trace.churn: nodes must be positive";
  if rate <= 0. || not (Float.is_finite rate) then
    invalid_arg "Trace.churn: rate must be positive";
  if mean_lifetime <= 0. || not (Float.is_finite mean_lifetime) then
    invalid_arg "Trace.churn: mean_lifetime must be positive";
  if horizon < 0. || not (Float.is_finite horizon) then
    invalid_arg "Trace.churn: horizon must be non-negative";
  let rng = Random.State.make [| seed; 0x6368 |] in
  let events = ref [] in
  let session = ref 0 in
  let t = ref 0. in
  let continue = ref true in
  while !continue do
    let gap = -.log (1. -. Random.State.float rng 1.) /. rate in
    t := !t +. gap;
    if !t > horizon then continue := false
    else begin
      let node = Random.State.int rng nodes in
      let lifetime =
        -.log (1. -. Random.State.float rng 1.) *. mean_lifetime
      in
      let s = !session in
      incr session;
      events := { time = !t; kind = Join { session = s; node } } :: !events;
      let leave_at = !t +. lifetime in
      if leave_at <= horizon then
        events := { time = leave_at; kind = Leave { session = s } } :: !events
    end
  done;
  List.rev !events

let drift_walk ~seed ~servers ~period ~amplitude ~horizon =
  if servers <= 0 then invalid_arg "Trace.drift_walk: servers must be positive";
  if period <= 0. || not (Float.is_finite period) then
    invalid_arg "Trace.drift_walk: period must be positive";
  if amplitude < 0. || amplitude > 1. || not (Float.is_finite amplitude) then
    invalid_arg "Trace.drift_walk: amplitude outside [0, 1]";
  if horizon < 0. || not (Float.is_finite horizon) then
    invalid_arg "Trace.drift_walk: horizon must be non-negative";
  let rng = Random.State.make [| seed; 0x6472 |] in
  let events = ref [] in
  let t = ref period in
  while !t <= horizon do
    let server = Random.State.int rng servers in
    let factor =
      Float.max 0.05 (1. -. amplitude +. (2. *. amplitude *. Random.State.float rng 1.))
    in
    events := { time = !t; kind = Drift { server; factor } } :: !events;
    t := !t +. period
  done;
  List.rev !events

let crashes_of_plan plan ~servers =
  List.concat_map
    (fun (actor, at, recover_at) ->
      if actor < 0 || actor >= servers then []
      else
        ({ time = at; kind = Crash { server = actor } }
        ::
        (match recover_at with
        | None -> []
        | Some r -> [ { time = r; kind = Recover { server = actor } } ])))
    (Dia_sim.Fault.crash_schedule plan)

let merge ~horizon streams =
  let tagged =
    List.concat
      (List.mapi
         (fun stream events ->
           List.mapi (fun i e -> (e.time, stream, i, e)) events)
         streams)
  in
  let kept = List.filter (fun (t, _, _, _) -> t <= horizon) tagged in
  let sorted =
    List.sort
      (fun (t1, s1, i1, _) (t2, s2, i2, _) ->
        compare (t1, s1, i1) (t2, s2, i2))
      kept
  in
  Array.of_list (List.map (fun (_, _, _, e) -> e) sorted)

(* By hand into bytes: on the soak's per-event path, [Printf] and a
   decimal float search would cost ten times the journal append. *)
let to_line { time; kind } =
  let b = Bytes.create 96 in
  let int key pos n = Codec.put_int b (Codec.put_string b pos key) n in
  let pos = Codec.put_float_hex b (Codec.put_string b 0 "t=") time in
  let pos =
    match kind with
    | Join { session; node } -> int " node=" (int " join session=" pos session) node
    | Leave { session } -> int " leave session=" pos session
    | Crash { server } -> int " crash server=" pos server
    | Recover { server } -> int " recover server=" pos server
    | Drift { server; factor } ->
        let pos = Codec.put_string b (int " drift server=" pos server) " factor=" in
        Codec.put_float_hex b pos factor
  in
  Bytes.sub_string b 0 pos

let of_line line =
  let kind tag fields =
    let scan fmt k = Scanf.sscanf fields fmt k in
    match tag with
    | "join" -> scan "session=%d node=%d%!" (fun session node -> Join { session; node })
    | "leave" -> scan "session=%d%!" (fun session -> Leave { session })
    | "crash" -> scan "server=%d%!" (fun server -> Crash { server })
    | "recover" -> scan "server=%d%!" (fun server -> Recover { server })
    | "drift" ->
        scan "server=%d factor=%s%!" (fun server factor ->
            Drift { server; factor = Codec.float_of_str factor })
    | other -> failwith (Printf.sprintf "unknown event %S" other)
  in
  match
    Scanf.sscanf line "t=%s %s %[^\n]%!" (fun time tag fields ->
        { time = Codec.float_of_str time; kind = kind tag fields })
  with
  | e -> Ok e
  | exception (Scanf.Scan_failure m | Failure m) ->
      Error (Printf.sprintf "Trace.of_line: %s in %S" m line)
  | exception End_of_file -> Error (Printf.sprintf "Trace.of_line: truncated %S" line)

let check ~servers ~nodes ~after ({ time; kind } as e) =
  let bad fmt = Printf.ksprintf Result.error fmt in
  let range k i n = if 0 <= i && i < n then Ok e else bad "%s %d out of range" k i in
  if not (Float.is_finite time && time >= after) then
    bad "time %s not in [%s, inf)" (Codec.float_str time) (Codec.float_str after)
  else
    match kind with
    | (Join { session; _ } | Leave { session }) when session < 0 ->
        bad "negative session %d" session
    | Join { node; _ } -> range "node" node nodes
    | Leave _ -> Ok e
    | Crash { server } | Recover { server } -> range "server" server servers
    | Drift { factor; _ } when not (Float.is_finite factor && factor > 0.) ->
        bad "drift factor %s not positive and finite" (Codec.float_str factor)
    | Drift { server; _ } -> range "server" server servers
