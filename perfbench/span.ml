(* In-memory span recorder for the traced replay.

   A span is one call into a layer: its name, start and end on the
   monotonic clock, the span that was open when it started, and the
   trace-event index current at the time. Spans are appended to growable
   arrays and only aggregated (or written out) once the run has ended, so
   recording costs two clock reads and a few array stores per call.

   Self time is a span's duration minus the durations of its direct
   children, accumulated on a stack while the run executes. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* -- Names ---------------------------------------------------------------- *)

let names : string array ref = ref [||]
let name_ids : (string, int) Hashtbl.t = Hashtbl.create 64

let name s =
  match Hashtbl.find_opt name_ids s with
  | Some id -> id
  | None ->
      let id = Array.length !names in
      names := Array.append !names [| s |];
      Hashtbl.replace name_ids s id;
      id

(* -- Recorded spans (struct of growable arrays) --------------------------- *)

let cap = ref 0
let len = ref 0
let s_name = ref [||]
let s_start = ref [||]
let s_stop = ref [||]
let s_self = ref [||]
let s_parent = ref [||]
let s_event = ref [||]

let grow () =
  let n = max 1024 (2 * !cap) in
  let extend a = Array.append !a (Array.make (n - !cap) 0) in
  s_name := extend s_name;
  s_start := extend s_start;
  s_stop := extend s_stop;
  s_self := extend s_self;
  s_parent := extend s_parent;
  s_event := extend s_event;
  cap := n

(* Open-span stack: span index and the child time accumulated so far. *)
let stack = ref []
let event = ref (-1)

(* Counters recorded at the same boundaries as the spans. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let count key v =
  Hashtbl.replace counters key
    (v +. Option.value ~default:0. (Hashtbl.find_opt counters key))

let open_span id =
  if !len = !cap then grow ();
  let i = !len in
  incr len;
  !s_name.(i) <- id;
  !s_parent.(i) <- (match !stack with [] -> -1 | (p, _) :: _ -> p);
  !s_event.(i) <- !event;
  stack := (i, ref 0) :: !stack;
  !s_start.(i) <- now_ns ();
  i

let close_span i =
  let stop = now_ns () in
  !s_stop.(i) <- stop;
  let dur = stop - !s_start.(i) in
  match !stack with
  | (j, children) :: rest when j = i ->
      !s_self.(i) <- dur - !children;
      stack := rest;
      (match rest with [] -> () | (_, c) :: _ -> c := !c + dur)
  | _ -> invalid_arg "Span.close_span: spans closed out of order"

(** [span id f] runs [f ()] inside a span named [id]. *)
let span id f =
  let i = open_span id in
  match f () with
  | v ->
      close_span i;
      v
  | exception e ->
      close_span i;
      raise e

(* -- Log-bucketed histograms ---------------------------------------------- *)

(* 16 sub-buckets per power of two of nanoseconds: fixed memory, relative
   bucket width at most 1/16. *)
let sub = 16
let nbuckets = 64 * sub

type hist = { buckets : int array; mutable n : int; mutable max : int }

let hist () = { buckets = Array.make nbuckets 0; n = 0; max = 0 }

let bucket_of v =
  if v < sub then max v 0
  else
    let e = snd (Float.frexp (float_of_int v)) - 1 in
    ((e - 3) * sub) + ((v lsr (e - 4)) land (sub - 1))

(* Midpoint of a bucket, in nanoseconds. *)
let value_of b =
  if b < sub then float_of_int b
  else
    let e = (b / sub) + 3 and m = b mod sub in
    let low = (sub + m) lsl (e - 4) and width = 1 lsl (e - 4) in
    float_of_int low +. (float_of_int width /. 2.)

let add h v =
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.n <- h.n + 1;
  if v > h.max then h.max <- v

(* Value at percentile [pct]: the smallest bucket whose cumulative count
   reaches rank ceil(pct/100 * n). *)
let percentile h pct =
  if h.n = 0 then 0.
  else
    let rank = max 1 (int_of_float (Float.ceil (pct /. 100. *. float_of_int h.n))) in
    let rec go b acc =
      let acc = acc + h.buckets.(b) in
      if acc >= rank || b = nbuckets - 1 then Float.min (value_of b) (float_of_int h.max)
      else go (b + 1) acc
    in
    go 0 0

(* The highest whole percentile with at least ten samples beyond it, and
   its value; [(0, 0.)] when there are ten samples or fewer. With 533
   samples it is p98. *)
let tail h =
  if h.n <= 10 then (0, 0.)
  else
    let pct = 100 * (h.n - 10) / h.n in
    (pct, percentile h (float_of_int pct))

(* -- Aggregation ---------------------------------------------------------- *)

type agg = { mutable calls : int; mutable self_ns : int; mutable total_ns : int; h : hist }

let empty () = { calls = 0; self_ns = 0; total_ns = 0; h = hist () }

(** Per-name calls, self time, total time and duration histogram over
    every span recorded so far. *)
let aggregate () =
  let aggs = Hashtbl.create 64 in
  for i = 0 to !len - 1 do
    let id = !s_name.(i) in
    let a =
      match Hashtbl.find_opt aggs id with
      | Some a -> a
      | None ->
          let a = empty () in
          Hashtbl.replace aggs id a;
          a
    in
    let dur = !s_stop.(i) - !s_start.(i) in
    a.calls <- a.calls + 1;
    a.self_ns <- a.self_ns + !s_self.(i);
    a.total_ns <- a.total_ns + dur;
    add a.h dur
  done;
  Hashtbl.fold (fun id a acc -> (!names.(id), a) :: acc) aggs []

(** Adds [b] into [a]. *)
let merge a b =
  a.calls <- a.calls + b.calls;
  a.self_ns <- a.self_ns + b.self_ns;
  a.total_ns <- a.total_ns + b.total_ns;
  Array.iteri (fun i c -> a.h.buckets.(i) <- a.h.buckets.(i) + c) b.h.buckets;
  a.h.n <- a.h.n + b.h.n;
  if b.h.max > a.h.max then a.h.max <- b.h.max

(** Write every recorded span as tab-separated
    [index name start_ns end_ns parent event] lines. *)
let write path =
  let oc = open_out path in
  output_string oc "index\tname\tstart_ns\tend_ns\tparent\tevent\n";
  for i = 0 to !len - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i !names.(!s_name.(i))
      !s_start.(i) !s_stop.(i) !s_parent.(i) !s_event.(i)
  done;
  close_out oc
