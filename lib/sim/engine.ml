(* Priority queue of events keyed by (time, sequence number); the
   sequence number makes same-time events FIFO and the whole simulation
   deterministic.

   A binary heap over unboxed keys: position [i] of the heap is the
   triple [times.(i)], [seqs.(i)], [slots.(i)], three parallel arrays of
   floats and immediates, so sifting moves no pointers and runs no write
   barrier. The closures live in the slab [actions], indexed by slot:
   written once when an event is scheduled, cleared when it fires. The
   slots at heap positions [size ..] are the free ones, so a pop hands
   its slot to the next push without a separate free list. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable actions : (unit -> unit) array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
}

let initial_capacity = 64

let create () =
  {
    times = Array.make initial_capacity 0.;
    seqs = Array.make initial_capacity 0;
    slots = Array.init initial_capacity Fun.id;
    actions = Array.make initial_capacity ignore;
    size = 0;
    clock = 0.;
    next_seq = 0;
  }

let now t = t.clock

(* Every slot is in use; the new positions [capacity ..] get the new
   slots [capacity ..]. *)
let grow t =
  let capacity = Array.length t.times in
  let bigger = 2 * capacity in
  let extend a fill =
    let b = Array.make bigger fill in
    Array.blit a 0 b 0 capacity;
    b
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.slots <- Array.init bigger (fun i -> if i < capacity then t.slots.(i) else i);
  t.actions <- extend t.actions ignore

let push t time seq action =
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = slots.(t.size) in
  t.actions.(slot) <- action;
  (* Sift a hole up from the end; the new key lands where the hole stops.
     [seq] is the largest yet, so only a strictly earlier time rises. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else rising := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Drop the root: the last key moves into a hole sifted down from the
   root, and the root's slot goes free at the vacated end position. *)
let remove_top t =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let freed = slots.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let time = times.(last) and seq = seqs.(last) and slot = slots.(last) in
    let i = ref 0 in
    let sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= last then sinking := false
      else begin
        let r = l + 1 in
        let c =
          if r < last
             && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        let ct = times.(c) in
        if ct < time || (ct = time && seqs.(c) < seq) then begin
          times.(!i) <- ct;
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else sinking := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- slot
  end;
  slots.(last) <- freed

let schedule t at action =
  if not (Float.is_finite at) then invalid_arg "Engine.schedule: non-finite time";
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %g is in the past (now %g)" at t.clock);
  push t at t.next_seq action;
  t.next_seq <- t.next_seq + 1

let schedule_after t delay action =
  if delay < 0. then invalid_arg "Engine.schedule_after: negative delay";
  schedule t (t.clock +. delay) action

let run ?(until = infinity) t =
  (* [until] is compared against the root before it is removed (peek,
     not pop-and-push-back), so a stopped run leaves the queue exactly
     as it found it. *)
  while t.size > 0 && not (t.times.(0) > until) do
    let time = t.times.(0) in
    let slot = t.slots.(0) in
    let action = t.actions.(slot) in
    t.actions.(slot) <- ignore;
    remove_top t;
    t.clock <- time;
    action ()
  done

let pending t = t.size
