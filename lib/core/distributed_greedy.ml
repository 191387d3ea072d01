type stats = {
  modifications : int;
  examined : int;
  broadcasts : int;
  probes : int;
}

type result = {
  assignment : Assignment.t;
  initial : Assignment.t;
  trace : float array;
  stats : stats;
}

(* Clients lying on some longest interaction path: clients that realise
   their server's eccentricity, for a server on a longest pair of
   effective eccentricities [eff] ([ecc] itself without a delay model).
   The per-server delay term is shared by all of a server's clients, so
   the witness filter stays on the raw eccentricity. *)
let longest_path_clients p assignment ~ecc ~eff d =
  let k = Problem.num_servers p in
  let on_longest = Array.make k false in
  for s1 = 0 to k - 1 do
    if eff.(s1) > neg_infinity then
      for s2 = s1 to k - 1 do
        if eff.(s2) > neg_infinity
           && eff.(s1) +. Problem.d_ss p s1 s2 +. eff.(s2) >= d -. 1e-9
        then begin
          on_longest.(s1) <- true;
          on_longest.(s2) <- true
        end
      done
  done;
  let candidates = ref [] in
  Array.iteri
    (fun c s ->
      if on_longest.(s) && Problem.d_cs p c s >= ecc.(s) -. 1e-9 then
        candidates := c :: !candidates)
    assignment;
  List.rev !candidates

let run ?initial ?delay p =
  let k = Problem.num_servers p in
  let capacity = match Problem.capacity p with None -> max_int | Some c -> c in
  let start =
    match initial with
    | None -> Nearest.assign ?delay p
    | Some a ->
        Option.iter Delay.validate delay;
        let a = Assignment.of_array p (Assignment.to_array a) in
        if not (Assignment.respects_capacity p a) then
          invalid_arg "Distributed_greedy.run: initial assignment violates capacity";
        a
  in
  let assignment = Assignment.to_array start in
  let load = Array.make k 0 in
  Array.iter (fun s -> load.(s) <- load.(s) + 1) assignment;
  let ecc =
    Array.init k (fun s ->
        let l = ref neg_infinity in
        Array.iteri
          (fun c s' -> if s' = s then l := Float.max !l (Problem.d_cs p c s))
          assignment;
        !l)
  in
  let objective ecc load = Ecc.objective ?delay p ecc ~load in
  (* Effective eccentricities [l(s) + delay(load s)] of the used servers;
     the eccentricities themselves without a model. *)
  let effective () =
    match delay with
    | None -> ecc
    | Some delay ->
        Array.mapi
          (fun s e -> if e > neg_infinity then e +. Delay.eval delay load.(s) else e)
          ecc
  in
  (* Initial exchange: every server broadcasts its inter-server distances
     and its longest client distance, and measures its own clients. *)
  let broadcasts = ref k and probes = ref (Array.length assignment) in
  let examined = ref 0 in
  let trace = ref [ objective ecc load ] in
  let continue = ref true in
  while !continue do
    let d = List.hd !trace in
    let candidates =
      longest_path_clients p assignment ~ecc ~eff:(effective ()) d
    in
    let moved = ref false in
    let rec try_candidates = function
      | [] -> ()
      | c :: rest ->
          incr examined;
          let old_s = assignment.(c) in
          (* Server old_s announces c and its eccentricity without c; the
             other servers each probe their latency to c and reply. *)
          incr broadcasts;
          probes := !probes + (k - 1);
          broadcasts := !broadcasts + (k - 1);
          let trial_ecc = Array.copy ecc in
          let trial_load = Array.copy load in
          trial_ecc.(old_s) <- Ecc.excluding p assignment ~server:old_s ~client:c;
          trial_load.(old_s) <- trial_load.(old_s) - 1;
          (* Score of target s'. Without a delay model: the longest
             interaction path involving c if it moved to s' — max over
             servers s'' (with their clients) of d(c,s') + d(s',s'') +
             l(s''), plus c's own round trip — a local estimate the
             servers compute from the broadcast eccentricities. With one,
             a move changes the loads of both endpoints, so the target
             is scored by the full trial objective. *)
          let score s' =
            match delay with
            | None -> Ecc.attach p trial_ecc ~client:c ~server:s'
            | Some _ ->
                let saved_e = trial_ecc.(s') and saved_l = trial_load.(s') in
                trial_ecc.(s') <- Float.max saved_e (Problem.d_cs p c s');
                trial_load.(s') <- saved_l + 1;
                let d' = objective trial_ecc trial_load in
                trial_ecc.(s') <- saved_e;
                trial_load.(s') <- saved_l;
                d'
          in
          let best_target = ref (-1) and best_score = ref infinity in
          for s' = 0 to k - 1 do
            if s' <> old_s && load.(s') < capacity then begin
              let v = score s' in
              if v < !best_score then begin
                best_score := v;
                best_target := s'
              end
            end
          done;
          if !best_target >= 0 && !best_score < d -. 1e-12 then begin
            (* Tentative move: recompute the global objective and commit
               only on strict improvement (other longest paths may keep D
               unchanged — the multiple-longest-paths case of the paper;
               with a delay model the score already is this objective). *)
            let s' = !best_target in
            trial_ecc.(s') <- Float.max trial_ecc.(s') (Problem.d_cs p c s');
            trial_load.(s') <- trial_load.(s') + 1;
            let d' = objective trial_ecc trial_load in
            if d' < d -. 1e-12 then begin
              assignment.(c) <- s';
              Array.blit trial_load 0 load 0 k;
              Array.blit trial_ecc 0 ecc 0 k;
              (* The new server broadcasts its updated longest distance. *)
              incr broadcasts;
              trace := d' :: !trace;
              moved := true
            end
            else try_candidates rest
          end
          else try_candidates rest
    in
    try_candidates candidates;
    if not !moved then continue := false
  done;
  {
    assignment = Assignment.unsafe_of_array assignment;
    initial = start;
    trace = Array.of_list (List.rev !trace);
    stats =
      {
        modifications = List.length !trace - 1;
        examined = !examined;
        broadcasts = !broadcasts;
        probes = !probes;
      };
  }

let assign ?delay p = (run ?delay p).assignment
