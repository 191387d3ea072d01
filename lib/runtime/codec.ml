let float_str f =
  if Float.is_nan f then "nan"
  else begin
    let exact fmt =
      let s = Printf.sprintf fmt f in
      if float_of_string s = f then Some s else None
    in
    match exact "%g" with
    | Some s -> s
    | None -> (
        match exact "%.12g" with Some s -> s | None -> Printf.sprintf "%.17g" f)
  end

(* Allocation-free text for the journal's per-event path, where the
   format interpreter would cost more than the CRC. *)
let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_int b pos n =
  (* Digits of the non-positive [-|n|], so [min_int] needs no special case. *)
  let pos = if n < 0 then put_string b pos "-" else pos in
  let n = if n > 0 then -n else n in
  let len = ref 1 and x = ref n in
  while !x <= -10 do incr len; x := !x / 10 done;
  x := n;
  for i = pos + !len - 1 downto pos do
    Bytes.set b i (Char.unsafe_chr (48 - (!x mod 10)));
    x := !x / 10
  done;
  pos + !len

let put_float_hex b pos f =
  let pos = if Float.sign_bit f then put_string b pos "-" else pos in
  if not (Float.is_finite f) then
    put_string b pos (if Float.is_nan f then "nan" else "infinity")
  else begin
    let bits = Int64.bits_of_float f in
    let e = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
    let m = Int64.to_int bits land 0xf_ffff_ffff_ffff in
    let pos = ref (put_string b pos (if e = 0 then "0x0" else "0x1")) in
    if m <> 0 then begin
      (* 13 nibbles of fraction, trailing zeros dropped *)
      let last = ref 0 in
      while (m lsr (4 * !last)) land 0xf = 0 do incr last done;
      pos := put_string b !pos ".";
      for i = 12 downto !last do
        Bytes.set b !pos "0123456789abcdef".[(m lsr (4 * i)) land 0xf];
        incr pos
      done
    end;
    let exp = if e > 0 then e - 1023 else if m = 0 then 0 else -1022 in
    put_int b (put_string b !pos (if exp >= 0 then "p+" else "p")) exp
  end

let float_of_str s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> failwith (Printf.sprintf "Codec.float_of_str: %S is not a float" s)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape s =
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | 'n' -> Buffer.add_char b '\n'
       | c -> Buffer.add_char b c);
       i := !i + 2
     end
     else begin
       Buffer.add_char b s.[!i];
       incr i
     end)
  done;
  Buffer.contents b
