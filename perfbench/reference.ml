(* The reference computation that the end-to-end times are measured
   against.

   The host this benchmark runs on is shared: other tenants' load on
   the caches and memory slows every instruction, by up to 2x, and the
   slowdown drifts over seconds to hours. Process CPU time slows just as
   much as wall time, so neither can be compared between runs made at
   different times. The instances of a workload are therefore timed
   alternately with this fixed computation, each in its own child, and
   the benchmark reports their time as a multiple of the reference's. A
   slowdown of the host stretches both; a change to the program
   stretches only the instance.

   The computation is fixed and uses no code of the repository, so no
   change to the program moves it. It does the kind of work the workloads
   do: it allocates small blocks on the minor heap, promotes a working
   set of about 20 MB to the major heap, hashes, and sorts floats and
   tuples. *)

let work () =
  let h = Hashtbl.create 16 in
  for i = 0 to 200_000 do
    Hashtbl.replace h (i * 7919 mod 1_000_003) (float_of_int i)
  done;
  let a = Array.init 300_000 (fun i -> float_of_int (i * 7919 mod 100_003)) in
  Array.sort compare a;
  let l = List.init 300_000 (fun i -> (i, float_of_int i)) in
  let l = List.sort (fun (x, _) (y, _) -> compare (y mod 977) (x mod 977)) l in
  ignore (Sys.opaque_identity (h, a, l))

(** The seconds one run of the reference computation is taken to last
    when set-up times are reported in seconds: about its median on the
    shared 2-core host the baselines in README.md were measured on. *)
let nominal_s = 0.4

(** Wall and CPU seconds of [reps] back-to-back runs of the reference
    computation. *)
let time ~reps () =
  let t0 = Workload.wall () and c0 = Sys.time () in
  for _ = 1 to reps do
    work ()
  done;
  (Workload.wall () -. t0, Sys.time () -. c0)
