module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment

type fault_stats = {
  dropped : int;
  duplicated : int;
  undeliverable : int;
  retransmissions : int;
  give_ups : int;
  regenerations : int;
  failovers : int;
}

type result = {
  assignment : Assignment.t;
  objective : float;
  initial_objective : float;
  modifications : int;
  messages : int;
  wall_duration : float;
  stalled : bool;
  faults : fault_stats;
}

type tuning = {
  rto : float;
  rto_cap : float;
  backoff : float;
  max_attempts : int;
  ping_period : float;
  regen_timeout : float;
  max_regenerations : int;
  deadline : float;
}

let base_settle_time p =
  let k = Problem.num_servers p in
  let max_latency = Dia_latency.Matrix.max_entry (Problem.latency p) in
  2. *. Float.max 1. max_latency *. float_of_int (k + 3)

let settle_time = base_settle_time

let default_tuning p =
  let max_latency = Float.max 1. (Dia_latency.Matrix.max_entry (Problem.latency p)) in
  let rto = 4. *. max_latency in
  {
    rto;
    rto_cap = 4. *. rto;
    backoff = 1.5;
    max_attempts = 10;
    ping_period = 3. *. rto;
    regen_timeout = 40. *. rto;
    max_regenerations = 32;
    deadline = (3. *. base_settle_time p) +. (500. *. rto);
  }

type payload =
  | Probe of float  (** transmit time, echoed back for an NTP-style RTT *)
  | Probe_reply of { t1 : float; hold : float }
      (** [t1] echoed; [hold] = time the replier sat on the probe, so
          retransmission waits cancel out of the RTT on both legs *)
  | Join of float  (** the client's measured distance to this server *)
  | Join_accept
  | Join_reject
  | Init_info of { inter : float array; longest : float }
  | Ready
  | Ecc_update of float  (** a late join grew this server's eccentricity *)
  | Candidate of { client : int; l_minus : float; epoch : int }
  | Candidate_reply of { l_value : float; distance : float; epoch : int }
  | Commit of {
      client : int;
      from_server : int;
      to_server : int;
      l_from : float;
      l_to : float;
      distance : float;
      epoch : int;
    }
  | Commit_ack of int  (** epoch *)
  | Token of { count : int; epoch : int }
  | Reassign
  | Ping

(* Reliable-transport frame: every protocol payload travels as [Data]
   with a per-channel sequence number, acknowledged per frame and
   retransmitted with backoff until acked or the retry budget runs out.
   Receivers deduplicate by (src, dst, seq), so loss and duplication
   faults are masked and retry exhaustion doubles as failure detection. *)
type frame = Data of { seq : int; body : payload } | Ack of int

(* Per-client protocol state. *)
type client_state = {
  client_index : int;
  mutable measured : (int * float) list;  (** (server, distance) measured *)
  mutable awaiting : int;  (** probe replies still expected *)
  mutable join_order : int array;  (** servers by measured distance *)
  mutable join_attempt : int;
  mutable my_server : int;
  dead : bool array;  (** this client's view of crashed servers *)
}

(* Per-server protocol state. *)
type server_state = {
  server_index : int;
  mutable members : (int * float) list;  (** (client, measured distance) *)
  mutable inter_rows : float array array;  (** inter_rows.(s).(s') as broadcast *)
  mutable longest : float array;  (** l(s) for every server, as broadcast *)
  mutable init_infos : int;
  mutable readys : int;
  mutable inter_awaiting : int;
  mutable inited : bool;
  peer_down : bool array;  (** this server's view of crashed peers *)
  mutable epoch : int;  (** newest token epoch seen *)
  (* token-holding state *)
  mutable untried : int list;
  mutable pending_replies : int;
  mutable replied : int list;
  mutable replies : (int * float * float) list;  (** (server, L, distance) *)
  mutable current_candidate : (int * float) option;  (** (client, l_minus) *)
  mutable pending_acks : int;
  mutable acked : int list;
  mutable token_count : int;
  mutable committed_this_possession : bool;
}

let eps = 1e-9

(* Both ends of one directed channel: the next seq its sender assigns,
   and the seq below which its receiver has delivered every frame. *)
type link = { mutable sent : int; mutable delivered_below : int }

let rec bit_width x = if x = 0 then 0 else 1 + bit_width (x lsr 1)

(* The fewest seq bits a packed frame key may leave; an instance whose
   channel ids would leave fewer is refused up front. *)
let min_seq_bits = 20

let run ?jitter ?fault ?tuning p =
  let k = Problem.num_servers p in
  let n = Problem.num_clients p in
  if n = 0 then invalid_arg "Dgreedy_protocol.run: no clients";
  let tuning = match tuning with Some t -> t | None -> default_tuning p in
  let capacity = match Problem.capacity p with None -> max_int | Some c -> c in
  let engine = Engine.create () in
  let node actor =
    if actor < k then (Problem.servers p).(actor) else (Problem.clients p).(actor - k)
  in
  let latency a b = Dia_latency.Matrix.get (Problem.latency p) (node a) (node b) in
  let net = Network.create ?jitter ?fault engine ~actors:(k + n) ~latency in
  (* Every join (probe + retries across up to k full servers) completes
     within this horizon; servers broadcast their initial state then.
     Under faults, stretch it so most first-round retransmissions have
     resolved — late joins are still absorbed via Ecc_update. *)
  let settle_time =
    base_settle_time p *. (match fault with None -> 1. | Some _ -> 3.)
  in

  let clients =
    Array.init n (fun c ->
        {
          client_index = c;
          measured = [];
          awaiting = k;
          join_order = [||];
          join_attempt = 0;
          my_server = -1;
          dead = Array.make k false;
        })
  in
  let servers =
    Array.init k (fun s ->
        {
          server_index = s;
          members = [];
          inter_rows = Array.make_matrix k k 0.;
          longest = Array.make k neg_infinity;
          init_infos = 0;
          readys = 0;
          inter_awaiting = k - 1;
          inited = false;
          peer_down = Array.make k false;
          epoch = 0;
          untried = [];
          pending_replies = 0;
          replied = [];
          replies = [];
          current_candidate = None;
          pending_acks = 0;
          acked = [];
          token_count = 0;
          committed_this_possession = false;
        })
  in
  let initial_objective = ref nan in
  let modifications = ref 0 in
  let retransmissions = ref 0 in
  let give_ups = ref 0 in
  let regenerations = ref 0 in
  let failovers = ref 0 in
  let epoch_counter = ref 0 in
  let stalled = ref false in
  let halted = ref false in
  let completion = ref 0. in
  let last_activity = ref settle_time in
  let finish () =
    if not !halted then begin
      halted := true;
      completion := Engine.now engine
    end
  in
  let touch () = last_activity := Engine.now engine in

  (* -- Reliable transport over the (possibly faulty) network ------------ *)
  (* Transport tables keyed by one packed int instead of boxed tuples.
     Applied here rather than at top level, so a program that links this
     module but never runs the protocol allocates nothing for it. *)
  let module Int_table = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash = Hashtbl.hash
  end) in
  (* A channel [src -> dst] is the int [src * (k + n) + dst]; a frame is
     its channel shifted left by [seq_bits], or-ed with its seq. *)
  let actors = k + n in
  let seq_bits = Sys.int_size - 1 - (2 * bit_width (actors - 1)) in
  if seq_bits < min_seq_bits then
    invalid_arg
      (Printf.sprintf "Dgreedy_protocol.run: %d actors overflow the packed frame keys"
         actors);
  let channel ~src ~dst = (src * actors) + dst in
  let frame_key ~src ~dst seq = (channel ~src ~dst lsl seq_bits) lor seq in
  let links : link Int_table.t = Int_table.create 64 in
  let link ~src ~dst =
    let ch = channel ~src ~dst in
    match Int_table.find_opt links ch with
    | Some l -> l
    | None ->
        let l = { sent = 0; delivered_below = 0 } in
        Int_table.add links ch l;
        l
  in
  let unacked : unit Int_table.t = Int_table.create 64 in
  (* Receiver-side deduplication: [early] holds the keys of the frames
     delivered above their channel's [delivered_below]. Frames overtake
     each other only under retransmission, duplication, spikes or
     jitter, so it stays small. *)
  let early : unit Int_table.t = Int_table.create 64 in
  let first_delivery ~src ~dst seq =
    let l = link ~src ~dst in
    if seq < l.delivered_below then false
    else if seq > l.delivered_below then begin
      let key = frame_key ~src ~dst seq in
      if Int_table.mem early key then false
      else begin
        Int_table.add early key ();
        true
      end
    end
    else begin
      l.delivered_below <- seq + 1;
      if Int_table.length early > 0 then
        while Int_table.mem early (frame_key ~src ~dst l.delivered_below) do
          Int_table.remove early (frame_key ~src ~dst l.delivered_below);
          l.delivered_below <- l.delivered_below + 1
        done;
      true
    end
  in
  (* Forward reference: retry exhaustion feeds back into protocol-level
     failure handling, defined after the handlers. *)
  let on_give_up : (src:int -> dst:int -> payload -> unit) ref =
    ref (fun ~src:_ ~dst:_ _ -> ())
  in
  let wait attempt =
    Float.min tuning.rto_cap (tuning.rto *. (tuning.backoff ** float_of_int attempt))
  in
  (* [mk] builds the body per transmission, so probes can stamp their
     actual departure time into each copy. *)
  let send_reliable ~src ~dst mk =
    let l = link ~src ~dst in
    let seq = l.sent in
    if seq lsr seq_bits <> 0 then
      invalid_arg
        (Printf.sprintf "Dgreedy_protocol.run: channel %d -> %d ran out of %d-bit seqs"
           src dst seq_bits);
    l.sent <- seq + 1;
    let key = frame_key ~src ~dst seq in
    Int_table.replace unacked key ();
    let rec attempt i =
      if (not !halted) && Int_table.mem unacked key then
        if i >= tuning.max_attempts then begin
          Int_table.remove unacked key;
          incr give_ups;
          !on_give_up ~src ~dst (mk ())
        end
        else begin
          if i > 0 then incr retransmissions;
          Network.send net ~src ~dst (Data { seq; body = mk () });
          Engine.schedule_after engine (wait i) (fun () -> attempt (i + 1))
        end
    in
    attempt 0
  in
  let rsend ~src ~dst body = send_reliable ~src ~dst (fun () -> body) in
  let frame_handler actor handle ~src frame =
    if not !halted then
      match frame with
      | Ack seq -> Int_table.remove unacked (frame_key ~src:actor ~dst:src seq)
      | Data { seq; body } ->
          Network.send net ~src:actor ~dst:src (Ack seq);
          if first_delivery ~src ~dst:actor seq then handle ~src body
  in

  let send_probe ~from ~target =
    send_reliable ~src:from ~dst:target (fun () -> Probe (Engine.now engine))
  in
  let reply_probe ~from ~target t1 =
    let t2 = Engine.now engine in
    send_reliable ~src:from ~dst:target (fun () ->
        Probe_reply { t1; hold = Engine.now engine -. t2 })
  in
  let probe_distance t1 hold = Float.max 0. ((Engine.now engine -. t1 -. hold) /. 2.) in

  let live_peers st =
    List.filter
      (fun s -> s <> st.server_index && not st.peer_down.(s))
      (List.init k Fun.id)
  in
  let broadcast_live st payload =
    List.iter (fun s -> rsend ~src:st.server_index ~dst:s payload) (live_peers st)
  in

  (* Distance between two servers as believed by [st] (symmetrised). *)
  let inter st s1 s2 =
    if s1 = s2 then 0.
    else (st.inter_rows.(s1).(s2) +. st.inter_rows.(s2).(s1)) /. 2.
  in
  let objective_of st longest =
    let best = ref neg_infinity in
    for s1 = 0 to k - 1 do
      if longest.(s1) > neg_infinity then
        for s2 = s1 to k - 1 do
          if longest.(s2) > neg_infinity then begin
            let len = longest.(s1) +. inter st s1 s2 +. longest.(s2) in
            if len > !best then best := len
          end
        done
    done;
    !best
  in
  let my_longest st =
    List.fold_left (fun acc (_, d) -> Float.max acc d) neg_infinity st.members
  in
  let longest_without st client =
    List.fold_left
      (fun acc (c, d) -> if c = client then acc else Float.max acc d)
      neg_infinity st.members
  in

  (* Candidates of the token holder: its clients realising l(s), when s
     lies on a longest interaction path. *)
  let compute_candidates st =
    let d = objective_of st st.longest in
    if Float.is_nan !initial_objective then initial_objective := d;
    let s = st.server_index in
    let on_longest = ref false in
    for s2 = 0 to k - 1 do
      if st.longest.(s) > neg_infinity
         && st.longest.(s2) > neg_infinity
         && st.longest.(s) +. inter st s s2 +. st.longest.(s2) >= d -. eps
      then on_longest := true
    done;
    if not !on_longest then []
    else
      List.filter_map
        (fun (c, dist) -> if dist >= st.longest.(s) -. eps then Some c else None)
        (List.sort compare st.members)
  in

  (* A token epoch newer than ours supersedes whatever round we were
     running: a regenerated token is circulating and our state is stale. *)
  let observe_epoch st epoch =
    if epoch > st.epoch then begin
      st.epoch <- epoch;
      if epoch > !epoch_counter then epoch_counter := epoch;
      st.untried <- [];
      st.current_candidate <- None;
      st.pending_replies <- 0;
      st.replied <- [];
      st.replies <- [];
      st.pending_acks <- 0;
      st.acked <- []
    end
  in

  (* Forward declaration: token-possession driver. *)
  let rec work st =
    match st.untried with
    | [] ->
        let next_count =
          if st.committed_this_possession then 0 else st.token_count + 1
        in
        let live = 1 + List.length (live_peers st) in
        if next_count >= live then finish () (* every live server failed to improve *)
        else pass_token st next_count
    | c :: rest ->
        st.untried <- rest;
        let l_minus = longest_without st c in
        st.current_candidate <- Some (c, l_minus);
        let peers = live_peers st in
        st.pending_replies <- List.length peers;
        st.replied <- [];
        st.replies <- [];
        if peers = [] then decide st
        else
          List.iter
            (fun s ->
              rsend ~src:st.server_index ~dst:s
                (Candidate { client = c; l_minus; epoch = st.epoch }))
            peers

  and pass_token st count =
    (* Next live server in ring order after us. *)
    let rec next i =
      if i = st.server_index then None
      else if not st.peer_down.(i) then Some i
      else next ((i + 1) mod k)
    in
    match next ((st.server_index + 1) mod k) with
    | None -> finish () (* alone; work already ruled out improvement *)
    | Some s -> rsend ~src:st.server_index ~dst:s (Token { count; epoch = st.epoch })

  and decide st =
    match st.current_candidate with
    | None -> ()
    | Some (c, l_minus) ->
        let d = objective_of st st.longest in
        let improving =
          (* Best target by L-value; commit only on strict global
             improvement, exactly like the centralized algorithm. *)
          match
            List.sort
              (fun (_, la, _) (_, lb, _) -> Float.compare la lb)
              st.replies
          with
          | [] -> None
          | (target, l_value, distance) :: _ when l_value < d -. eps ->
              let trial = Array.copy st.longest in
              trial.(st.server_index) <- l_minus;
              trial.(target) <- Float.max trial.(target) distance;
              let d' = objective_of st trial in
              if d' < d -. eps then Some (target, distance) else None
          | _ -> None
        in
        (match improving with
        | Some (target, distance) ->
            let l_to =
              (* The target's eccentricity after adopting c, from its
                 reported measured distance. *)
              Float.max
                (if target = st.server_index then l_minus else st.longest.(target))
                distance
            in
            let commit =
              Commit
                {
                  client = c;
                  from_server = st.server_index;
                  to_server = target;
                  l_from = l_minus;
                  l_to;
                  distance;
                  epoch = st.epoch;
                }
            in
            let peers = live_peers st in
            st.pending_acks <- List.length peers;
            st.acked <- [];
            st.committed_this_possession <- true;
            incr modifications;
            (* Apply locally: drop the client, update the table. *)
            st.members <- List.filter (fun (c', _) -> c' <> c) st.members;
            st.longest.(st.server_index) <- l_minus;
            st.longest.(target) <- l_to;
            st.current_candidate <- None;
            if peers = [] then after_commit st else broadcast_live st commit
        | None ->
            st.current_candidate <- None;
            work st)

  and after_commit st =
    (* All live servers acknowledged: candidates are stale, recompute. *)
    st.untried <- compute_candidates st;
    work st

  (* Failure handling: a peer that exhausted our retry budget is treated
     as crashed — removed from the believed state and from any round we
     are waiting on, so a wedged possession completes without it. *)
  and mark_peer_dead st s =
    if s <> st.server_index && not st.peer_down.(s) then begin
      st.peer_down.(s) <- true;
      st.longest.(s) <- neg_infinity;
      (match st.current_candidate with
      | Some _ when st.pending_replies > 0 && not (List.mem s st.replied) ->
          st.replied <- s :: st.replied;
          st.pending_replies <- st.pending_replies - 1;
          if st.pending_replies = 0 then decide st
      | _ -> ());
      if st.pending_acks > 0 && not (List.mem s st.acked) then begin
        st.acked <- s :: st.acked;
        st.pending_acks <- st.pending_acks - 1;
        if st.pending_acks = 0 then after_commit st
      end
    end
  in

  let start_token st =
    st.token_count <- 0;
    st.committed_this_possession <- false;
    st.untried <- compute_candidates st;
    work st
  in

  (* Server message handler (the candidate wrapper below intercepts
     client-probe replies first). *)
  let server_handle st ~src payload =
    match payload with
    | Probe t1 -> reply_probe ~from:st.server_index ~target:src t1
    | Probe_reply { t1; hold } ->
        (* Inter-server measurement during initialisation; client-probe
           replies (src >= k) are intercepted by the wrapper handler. *)
        if src < k then begin
          st.inter_rows.(st.server_index).(src) <- probe_distance t1 hold;
          st.inter_awaiting <- st.inter_awaiting - 1
        end
    | Join distance ->
        if List.mem_assoc (src - k) st.members then
          (* A duplicate join (e.g. re-join after a spurious failure
             verdict on us): idempotent accept. *)
          rsend ~src:st.server_index ~dst:src Join_accept
        else if List.length st.members < capacity then begin
          st.members <- (src - k, distance) :: st.members;
          rsend ~src:st.server_index ~dst:src Join_accept;
          if st.inited && distance > st.longest.(st.server_index) then begin
            (* A fail-over (or loss-delayed) join landed after the state
               exchange: our eccentricity grew; tell the live peers. *)
            st.longest.(st.server_index) <- distance;
            broadcast_live st (Ecc_update distance)
          end
        end
        else rsend ~src:st.server_index ~dst:src Join_reject
    | Init_info { inter = row; longest } ->
        st.inter_rows.(src) <- Array.copy row;
        st.longest.(src) <- longest;
        st.init_infos <- st.init_infos + 1;
        if st.init_infos = k - 1 then
          if st.server_index = 0 then begin
            st.readys <- st.readys + 1;
            if st.readys = k then start_token st
          end
          else rsend ~src:st.server_index ~dst:0 Ready
    | Ready ->
        st.readys <- st.readys + 1;
        if st.readys = k && st.init_infos = k - 1 then start_token st
    | Ecc_update value ->
        touch ();
        st.longest.(src) <- Float.max st.longest.(src) value
    | Candidate _ -> () (* handled in the wrapper below *)
    | Candidate_reply { l_value; distance; epoch } ->
        touch ();
        if
          epoch = st.epoch
          && st.current_candidate <> None
          && not (List.mem src st.replied)
        then begin
          st.replied <- src :: st.replied;
          st.replies <- (src, l_value, distance) :: st.replies;
          st.pending_replies <- st.pending_replies - 1;
          if st.pending_replies = 0 then decide st
        end
    | Commit { client; from_server; to_server; l_from; l_to; distance; epoch } ->
        touch ();
        observe_epoch st epoch;
        if epoch = st.epoch then begin
          st.longest.(from_server) <- l_from;
          st.longest.(to_server) <- l_to;
          if st.server_index = to_server then begin
            st.members <- (client, distance) :: st.members;
            rsend ~src:st.server_index ~dst:(k + client) Reassign
          end;
          rsend ~src:st.server_index ~dst:src (Commit_ack st.epoch)
        end
    | Commit_ack epoch ->
        touch ();
        if epoch = st.epoch && st.pending_acks > 0 && not (List.mem src st.acked)
        then begin
          st.acked <- src :: st.acked;
          st.pending_acks <- st.pending_acks - 1;
          if st.pending_acks = 0 then after_commit st
        end
    | Token { count; epoch } ->
        touch ();
        if epoch >= st.epoch then begin
          observe_epoch st epoch;
          st.token_count <- count;
          st.committed_this_possession <- false;
          st.untried <- compute_candidates st;
          work st
        end
    | Ping | Join_accept | Join_reject | Reassign -> ()
  in

  (* Candidate handling needs a small state machine of its own per
     server: probe the client, then reply with L computed from the
     measured distance. *)
  let candidate_context : (int, int * float * int * int) Hashtbl.t =
    Hashtbl.create 16
  in
  (* server index -> (holder server, l_minus, epoch, probed client). *)
  let server_handle st ~src payload =
    match payload with
    | Candidate { client; l_minus; epoch } ->
        touch ();
        observe_epoch st epoch;
        if epoch = st.epoch then begin
          Hashtbl.replace candidate_context st.server_index
            (src, l_minus, epoch, client);
          send_probe ~from:st.server_index ~target:(k + client)
        end
    | Probe_reply { t1; hold }
      when src >= k && Hashtbl.mem candidate_context st.server_index ->
        let holder, l_minus, epoch, _ =
          Hashtbl.find candidate_context st.server_index
        in
        Hashtbl.remove candidate_context st.server_index;
        let distance = probe_distance t1 hold in
        let l_value =
          if List.length st.members >= capacity then infinity
          else begin
            let trial = Array.copy st.longest in
            trial.(holder) <- l_minus;
            let worst = ref (2. *. distance) in
            for s'' = 0 to k - 1 do
              if trial.(s'') > neg_infinity then begin
                let len = distance +. inter st st.server_index s'' +. trial.(s'') in
                if len > !worst then worst := len
              end
            done;
            !worst
          end
        in
        rsend ~src:st.server_index ~dst:holder
          (Candidate_reply { l_value; distance; epoch })
    | other -> server_handle st ~src other
  in

  (* Client message handler. *)
  let rec try_join cs =
    if cs.join_attempt < Array.length cs.join_order then begin
      let target = cs.join_order.(cs.join_attempt) in
      if cs.dead.(target) then begin
        cs.join_attempt <- cs.join_attempt + 1;
        try_join cs
      end
      else
        rsend ~src:(k + cs.client_index) ~dst:target
          (Join (List.assoc target cs.measured))
    end
  in
  let build_join_order cs =
    let measured = List.sort compare (List.map fst cs.measured) in
    let order = Array.of_list measured in
    Array.sort
      (fun a b ->
        match Float.compare (List.assoc a cs.measured) (List.assoc b cs.measured) with
        | 0 -> compare a b
        | cmp -> cmp)
      order;
    cs.join_order <- order;
    cs.join_attempt <- 0;
    try_join cs
  in
  let client_handle cs ~src payload =
    match payload with
    | Probe t1 -> reply_probe ~from:(k + cs.client_index) ~target:src t1
    | Probe_reply { t1; hold } ->
        if not (List.mem_assoc src cs.measured) then begin
          cs.measured <- (src, probe_distance t1 hold) :: cs.measured;
          if cs.awaiting > 0 then begin
            cs.awaiting <- cs.awaiting - 1;
            if cs.awaiting = 0 then build_join_order cs
          end
        end
    | Join_accept -> cs.my_server <- cs.join_order.(cs.join_attempt)
    | Join_reject ->
        cs.join_attempt <- cs.join_attempt + 1;
        try_join cs
    | Reassign -> cs.my_server <- src
    | Ping | Join _ | Init_info _ | Ready | Ecc_update _ | Candidate _
    | Candidate_reply _ | Commit _ | Commit_ack _ | Token _ ->
        ()
  in

  (* Retry exhaustion: the protocol-level failure detector. *)
  let give_up ~src ~dst body =
    if src < k then begin
      let st = servers.(src) in
      if dst < k then begin
        mark_peer_dead st dst;
        match body with
        | Token { count; epoch } when epoch = st.epoch ->
            (* The token died with its recipient: route it onward. *)
            pass_token st count
        | _ -> ()
      end
      else begin
        (* An unreachable client: if we were probing it for the token
           holder, answer for it so the round completes. *)
        match Hashtbl.find_opt candidate_context src with
        | Some (holder, _, epoch, client) when k + client = dst -> (
            match body with
            | Probe _ ->
                Hashtbl.remove candidate_context src;
                rsend ~src ~dst:holder
                  (Candidate_reply { l_value = infinity; distance = infinity; epoch })
            | _ -> ())
        | _ -> ()
      end
    end
    else begin
      let cs = clients.(src - k) in
      if dst < k then begin
        cs.dead.(dst) <- true;
        match body with
        | Probe _ ->
            (* Bootstrap probe to a dead server: proceed without it. *)
            if cs.awaiting > 0 then begin
              cs.awaiting <- cs.awaiting - 1;
              if cs.awaiting = 0 then build_join_order cs
            end
        | Join _ -> try_join cs (* skips the newly dead target *)
        | Ping when cs.my_server = dst ->
            (* Our server crashed: fail over via the ordinary join rule,
               starting again from the nearest live server. *)
            incr failovers;
            cs.my_server <- -1;
            cs.join_attempt <- 0;
            try_join cs
        | _ -> ()
      end
    end
  in
  on_give_up := give_up;

  for s = 0 to k - 1 do
    Network.on_receive net s (frame_handler s (server_handle servers.(s)))
  done;
  for c = 0 to n - 1 do
    Network.on_receive net (k + c) (frame_handler (k + c) (client_handle clients.(c)))
  done;

  (* Kick-off: clients probe all servers; servers probe each other; at
     the settle time every server publishes its initial state. *)
  Engine.schedule engine 0. (fun () ->
      for c = 0 to n - 1 do
        for s = 0 to k - 1 do
          send_probe ~from:(k + c) ~target:s
        done
      done;
      for s = 0 to k - 1 do
        for s' = 0 to k - 1 do
          if s' <> s then send_probe ~from:s ~target:s'
        done
      done);
  Engine.schedule engine settle_time (fun () ->
      if not !halted then
        Array.iter
          (fun st ->
            st.longest.(st.server_index) <- my_longest st;
            st.inited <- true;
            if k = 1 then
              (* Single server: no exchange; start (and finish) directly. *)
              start_token st
            else
              broadcast_live st
                (Init_info
                   {
                     inter = Array.copy st.inter_rows.(st.server_index);
                     longest = st.longest.(st.server_index);
                   }))
          servers);

  (* Fault-mode periphery: client keepalives (crash detection for
     fail-over) and the token watchdog (regeneration when the holder
     dies, and a hard deadline so every run terminates). *)
  (match fault with
  | None -> ()
  | Some fault_state ->
      for c = 0 to n - 1 do
        let cs = clients.(c) in
        let rec ping () =
          if not !halted then begin
            if cs.my_server >= 0 && not cs.dead.(cs.my_server) then
              rsend ~src:(k + c) ~dst:cs.my_server Ping;
            Engine.schedule_after engine tuning.ping_period ping
          end
        in
        Engine.schedule engine (settle_time +. tuning.ping_period) ping
      done;
      let rec watchdog () =
        if not !halted then begin
          let now = Engine.now engine in
          if now >= tuning.deadline then begin
            stalled := true;
            finish ()
          end
          else begin
            if now -. !last_activity >= tuning.regen_timeout then begin
              if !regenerations >= tuning.max_regenerations then begin
                stalled := true;
                finish ()
              end
              else begin
                (* The token went quiet: its holder crashed (or it was
                   never started). The lowest-indexed live server mints a
                   fresh token under a new epoch; stale rounds are
                   discarded on first contact with the higher epoch. *)
                let live = ref None in
                for s = k - 1 downto 0 do
                  if
                    not (Fault.down fault_state ~now s)
                  then live := Some s
                done;
                match !live with
                | None ->
                    stalled := true;
                    finish ()
                | Some s ->
                    incr regenerations;
                    incr epoch_counter;
                    let st = servers.(s) in
                    observe_epoch st !epoch_counter;
                    last_activity := now;
                    start_token st
              end
            end;
            Engine.schedule_after engine tuning.regen_timeout watchdog
          end
        end
      in
      Engine.schedule engine (settle_time +. tuning.regen_timeout) watchdog);
  Engine.run engine;
  if not !halted then completion := Engine.now engine;

  (* Final assignment: live servers' member lists are authoritative;
     clients' own beliefs fill the gaps; anyone still attached to a
     crashed server is re-homed to its nearest live server — the same
     rule the bootstrap join uses. *)
  let down_at_end s =
    match fault with
    | None -> false
    | Some fault_state -> Fault.down fault_state ~now:!completion s
  in
  let assignment = Array.make n (-1) in
  Array.iteri
    (fun s st ->
      if not (down_at_end s) then
        List.iter (fun (c, _) -> assignment.(c) <- s) st.members)
    servers;
  Array.iteri
    (fun c s ->
      if s < 0 then begin
        let believed = clients.(c).my_server in
        if believed >= 0 && not (down_at_end believed) then
          assignment.(c) <- believed
      end)
    assignment;
  let candidates =
    let live = List.filter (fun s -> not (down_at_end s)) (List.init k Fun.id) in
    if live = [] then List.init k Fun.id else live
  in
  let loads = Array.make k 0 in
  Array.iter (fun s -> if s >= 0 then loads.(s) <- loads.(s) + 1) assignment;
  for c = 0 to n - 1 do
    if assignment.(c) < 0 || down_at_end assignment.(c) then begin
      incr failovers;
      let best = ref (-1) and best_d = ref infinity in
      let consider s =
        let d = Problem.d_cs p c s in
        if d < !best_d then begin
          best_d := d;
          best := s
        end
      in
      List.iter (fun s -> if loads.(s) < capacity then consider s) candidates;
      if !best < 0 then List.iter consider candidates;
      assignment.(c) <- !best;
      loads.(!best) <- loads.(!best) + 1
    end
  done;
  let assignment = Assignment.of_array p assignment in
  {
    assignment;
    objective = Dia_core.Objective.max_interaction_path p assignment;
    initial_objective = !initial_objective;
    modifications = !modifications;
    messages = Network.messages_sent net;
    wall_duration = !completion;
    stalled = !stalled;
    faults =
      {
        dropped = Network.messages_dropped net;
        duplicated = Network.messages_duplicated net;
        undeliverable = Network.undeliverable net;
        retransmissions = !retransmissions;
        give_ups = !give_ups;
        regenerations = !regenerations;
        failovers = !failovers;
      };
  }
