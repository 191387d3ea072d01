type t =
  | Constant of float
  | Linear of { base : float; coeff : float }
  | Queueing of { mu : float }

(* Finite stand-in for an infinite queueing delay: large enough to
   dominate any network distance, small enough that sums of a few of
   them stay finite — so saturated configurations remain totally
   ordered (by how far past saturation they are) instead of collapsing
   into incomparable infinities or NaNs. *)
let saturation = 1e9

let validate = function
  | Constant c ->
      if not (Float.is_finite c) || c < 0. then
        invalid_arg "Delay: Constant must be finite and >= 0"
  | Linear { base; coeff } ->
      if not (Float.is_finite base) || base < 0. then
        invalid_arg "Delay: Linear base must be finite and >= 0";
      if not (Float.is_finite coeff) || coeff < 0. then
        invalid_arg "Delay: Linear coeff must be finite and >= 0"
  | Queueing { mu } ->
      if not (Float.is_finite mu) || mu <= 0. then
        invalid_arg "Delay: Queueing mu must be finite and > 0"

let eval t load =
  if load < 0 then invalid_arg "Delay.eval: negative load";
  match t with
  | Constant c -> c
  | Linear { base; coeff } -> base +. (coeff *. float_of_int load)
  | Queueing { mu } ->
      let l = float_of_int load in
      if l < mu then
        (* 1/(mu - l) can overflow when mu - l is subnormal; the cap
           keeps the unsaturated branch at most [saturation]. *)
        Float.min (1. /. (mu -. l)) saturation
      else
        (* At or past saturation: strictly above every unsaturated
           value, and still strictly increasing in the backlog. *)
        saturation +. (l -. mu +. 1.)

let table ?delay n =
  match delay with
  | None -> Array.make (n + 1) 0.
  | Some t ->
      validate t;
      Array.init (n + 1) (eval t)

let to_string = function
  | Constant c -> Printf.sprintf "constant:%.17g" c
  | Linear { base; coeff } -> Printf.sprintf "linear:%.17g,%.17g" base coeff
  | Queueing { mu } -> Printf.sprintf "mm1:%.17g" mu

let of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "invalid delay spec %S (expected constant:C, linear:BASE,COEFF or mm1:MU)"
         s)
  in
  let float_arg v = match float_of_string_opt (String.trim v) with
    | Some f when Float.is_finite f -> Some f
    | _ -> None
  in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let kind = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "constant" -> (
          match float_arg arg with
          | Some c when c >= 0. -> Ok (Constant c)
          | _ -> fail ())
      | "linear" -> (
          match String.index_opt arg ',' with
          | None -> fail ()
          | Some j -> (
              let b = String.sub arg 0 j
              and c = String.sub arg (j + 1) (String.length arg - j - 1) in
              match (float_arg b, float_arg c) with
              | Some base, Some coeff when base >= 0. && coeff >= 0. ->
                  Ok (Linear { base; coeff })
              | _ -> fail ()))
      | "mm1" -> (
          match float_arg arg with
          | Some mu when mu > 0. -> Ok (Queueing { mu })
          | _ -> fail ())
      | _ -> fail ())

let pp fmt t = Format.pp_print_string fmt (to_string t)
