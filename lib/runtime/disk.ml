module Fault = Dia_sim.Fault

type t = {
  rules : Fault.disk_rule list;
  mutable ckpt_ops : int;  (* checkpoint writes performed so far *)
  mutable journal_ops : int;  (* journal flushes performed so far *)
  mutable journal_dead : bool;  (* a jtorn fired; later flushes are lost *)
  mutable faults_fired : int;
}

let create plan =
  {
    rules = Fault.disk_schedule plan;
    ckpt_ops = 0;
    journal_ops = 0;
    journal_dead = false;
    faults_fired = 0;
  }

let none () = create Fault.reliable
let active t = t.rules <> []
let faults_fired t = t.faults_fired

(* With no [jtorn:] rules the journal-flush op counter can never matter,
   so the writer may stream its buffer to the file directly instead of
   materialising a chunk string per flush. *)
let journal_passthrough t =
  not
    (List.exists
       (function Fault.Torn_journal _ -> true | _ -> false)
       t.rules)

let truncated data at = String.sub data 0 (min at (String.length data))

let flipped data at =
  if at >= String.length data then data
  else begin
    let b = Bytes.of_string data in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 1));
    Bytes.to_string b
  end

(* One checkpoint write through the injector: apply every disk rule
   whose op index is this write, then perform the tmp-file + rename
   dance. Rules apply in plan order; a flip mutates the payload, a torn
   write truncates what reaches the tmp file, a rename crash leaves only
   the tmp file, and a lost fsync truncates the renamed file after the
   fact (data pages past [at] never made it). *)
let write_file t ~path data =
  t.ckpt_ops <- t.ckpt_ops + 1;
  let op = t.ckpt_ops in
  let data = ref data and renames = ref true and post = ref None in
  List.iter
    (fun rule ->
      let fired () = t.faults_fired <- t.faults_fired + 1 in
      match rule with
      | Fault.Bit_flip { op = o; at } when o = op ->
          fired ();
          data := flipped !data at
      | Fault.Torn_write { op = o; at } when o = op ->
          fired ();
          data := truncated !data at
      | Fault.Crashed_rename { op = o } when o = op ->
          fired ();
          renames := false
      | Fault.Lost_fsync { op = o; at } when o = op ->
          fired ();
          post := Some at
      | _ -> ())
    t.rules;
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc !data;
  close_out oc;
  if !renames then begin
    Sys.rename tmp path;
    match !post with
    | None -> ()
    | Some at ->
        let kept = truncated !data at in
        let oc = open_out_bin path in
        output_string oc kept;
        close_out oc
  end

(* One journal flush through the injector: [None] means the chunk is
   lost entirely (device wedged after an earlier tear), [Some chunk']
   is what actually reaches the file. *)
let journal_chunk t chunk =
  if t.journal_dead then None
  else begin
    t.journal_ops <- t.journal_ops + 1;
    let op = t.journal_ops in
    let chunk = ref chunk in
    List.iter
      (fun rule ->
        match rule with
        | Fault.Torn_journal { op = o; at } when o = op ->
            t.faults_fired <- t.faults_fired + 1;
            t.journal_dead <- true;
            chunk := truncated !chunk at
        | _ -> ())
      t.rules;
    Some !chunk
  end
