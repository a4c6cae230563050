(* Digits the fast paths take: any 18 of them sum to less than 2^60, so
   they fit a native int with room for the 64-bit normalisation. *)
let max_digits = 18

(* Decimal exponents the 128-bit table covers: 5^55 < 2^128 keeps every
   entry with q >= 0 exact, and 5^26 < 2^61 lets the q < 0 entries be
   divided out on native ints. *)
let q_min = -26

let q_max = 55

let is_digit c = c >= '0' && c <= '9'

let check_bounds name buf lo hi =
  if lo < 0 || hi > Bytes.length buf || lo > hi then invalid_arg name

let int_in buf lo hi =
  check_bounds "Decimal.int_in" buf lo hi;
  if hi - lo < 1 || hi - lo > max_digits then -1
  else begin
    let v = ref 0 and i = ref lo in
    while !i < hi && is_digit (Bytes.unsafe_get buf !i) do
      v := (10 * !v) + Char.code (Bytes.unsafe_get buf !i) - 48;
      incr i
    done;
    if !i = hi then !v else -1
  end

(* --- The tables, built once with exact integer arithmetic --- *)

let rec pow5 k = if k = 0 then 1 else 5 * pow5 (k - 1)

(* Bits needed to write [x >= 0]. *)
let bit_length x =
  let rec halve n x s =
    if s = 0 then n + x
    else if x >= 1 lsl s then halve (n + s) (x lsr s) (s / 2)
    else halve n x (s / 2)
  in
  halve 0 x 32

(* [limbs <- m * limbs + a] modulo 2^128, on four 32-bit limbs, most
   significant first. *)
let mul_add limbs m a =
  let carry = ref a in
  for k = 3 downto 0 do
    let x = (m * limbs.(k)) + !carry in
    limbs.(k) <- x land 0xFFFF_FFFF;
    carry := x lsr 32
  done

(* The 128-bit approximation of 5^q with bit 127 set, as its (high,
   low) 64-bit words: 5^q shifted left for q >= 0;
   floor(2^(z + 127) / 5^-q) + 1 for q < 0, where z is the bit length
   of 5^-q, by long division one quotient bit at a time. *)
let power_of_five q =
  let limbs = [| 0; 0; 0; 0 |] in
  if q >= 0 then begin
    mul_add limbs 1 1;
    for _ = 1 to q do
      mul_add limbs 5 0
    done;
    while limbs.(0) < 0x8000_0000 do
      mul_add limbs 2 0
    done
  end
  else begin
    let p = pow5 (-q) in
    let r = ref 0 in
    for k = 0 to bit_length p + 127 do
      r := (2 * !r) + if k = 0 then 1 else 0;
      if !r >= p then begin
        r := !r - p;
        mul_add limbs 2 1
      end
      else mul_add limbs 2 0
    done;
    mul_add limbs 1 1
  end;
  let word h l = Int64.logor (Int64.shift_left (Int64.of_int h) 32) (Int64.of_int l) in
  (word limbs.(0) limbs.(1), word limbs.(2) limbs.(3))

let powers_of_five = Array.init (q_max - q_min + 1) (fun k -> power_of_five (q_min + k))

(* --- Eisel–Lemire --- *)

(* The high 64 bits of the unsigned 128-bit product [a * b], from the
   products of their 32-bit halves. *)
let[@inline] mul_high a b =
  let a_lo = Int64.logand a 0xFFFF_FFFFL and a_hi = Int64.shift_right_logical a 32 in
  let b_lo = Int64.logand b 0xFFFF_FFFFL and b_hi = Int64.shift_right_logical b 32 in
  let lo_hi = Int64.mul a_lo b_hi and hi_lo = Int64.mul a_hi b_lo in
  let cross =
    Int64.add
      (Int64.add (Int64.shift_right_logical (Int64.mul a_lo b_lo) 32) (Int64.logand hi_lo 0xFFFF_FFFFL))
      lo_hi
  in
  Int64.add
    (Int64.add (Int64.shift_right_logical hi_lo 32) (Int64.shift_right_logical cross 32))
    (Int64.mul a_hi b_hi)

(* Unsigned [a < b]. *)
let[@inline] ult (a : int64) b = Int64.add a Int64.min_int < Int64.add b Int64.min_int

(* w * 10^q for 0 < w < 10^18 and q in the table, correctly rounded to
   nearest-even into [out.(0)]; false when the product leaves the
   rounding undecided. Every such value lies in [1e-26, 1e73), so the
   result is always a normal double. *)
let eisel_lemire ~neg w q (out : float array) =
  let lz = 64 - bit_length w in
  let x = Int64.shift_left (Int64.of_int w) lz in
  let hi5, lo5 = powers_of_five.(q - q_min) in
  let upper = mul_high x hi5 and lower = Int64.mul x hi5 in
  (* The low 9 bits of the high word decide the rounding unless they
     are all ones: then add the high word of the second product. *)
  let second = if Int64.logand upper 0x1FFL = 0x1FFL then mul_high x lo5 else 0L in
  let lower = Int64.add lower second in
  let upper = if ult lower second then Int64.add upper 1L else upper in
  if Int64.logand upper 0x1FFL = 0x1FFL && lower = -1L then false
  else begin
    let upperbit = Int64.to_int (Int64.shift_right_logical upper 63) in
    let shift = upperbit + 9 in
    let mantissa = Int64.to_int (Int64.shift_right_logical upper shift) in
    let power2 = ((217706 * q) asr 16) + 63 + upperbit - lz + 1023 in
    (* An exact halfway case rounds to even: it can only arise for
       q in [-4, 23], with nothing but zeros shifted out. *)
    let mantissa =
      if
        (lower = 0L || lower = 1L)
        && q >= -4 && q <= 23
        && mantissa land 3 = 1
        && Int64.shift_left (Int64.of_int mantissa) shift = upper
      then mantissa land lnot 1
      else mantissa
    in
    let mantissa = (mantissa + (mantissa land 1)) lsr 1 in
    (* Rounding up to 2^53 carries into the exponent. *)
    let carry = mantissa lsr 53 in
    let power2 = power2 + carry and mantissa = mantissa lsr carry in
    let bits =
      Int64.logor
        (Int64.shift_left (Int64.of_int power2) 52)
        (Int64.of_int (mantissa land ((1 lsl 52) - 1)))
    in
    let v = Int64.float_of_bits bits in
    out.(0) <- (if neg then -.v else v);
    true
  end

(* --- Float tokens --- *)

let float_in buf lo hi (out : float array) =
  check_bounds "Decimal.float_in" buf lo hi;
  let neg = lo < hi && Bytes.unsafe_get buf lo = '-' in
  let i = ref (if lo < hi && (neg || Bytes.unsafe_get buf lo = '+') then lo + 1 else lo) in
  (* The significand: [w] holds its first [max_digits] significant
     digits, [point] is the index of the '.' if there is one. *)
  let w = ref 0 and significant = ref 0 and digits = ref 0 and point = ref (-1) in
  let scanning = ref true in
  while !scanning && !i < hi do
    let c = Bytes.unsafe_get buf !i in
    if is_digit c then begin
      incr digits;
      if !w > 0 || c > '0' then begin
        incr significant;
        if !significant <= max_digits then w := (10 * !w) + Char.code c - 48
      end;
      incr i
    end
    else if c = '.' && !point < 0 then begin
      point := !i;
      incr i
    end
    else scanning := false
  done;
  let fraction = if !point < 0 then 0 else !i - !point - 1 in
  (* The exponent; one of 100,000 or more is left to the fallback. *)
  let exp = ref 0 and exp_ok = ref true in
  if !i < hi && (Bytes.unsafe_get buf !i = 'e' || Bytes.unsafe_get buf !i = 'E') then begin
    incr i;
    let exp_neg = !i < hi && Bytes.unsafe_get buf !i = '-' in
    if !i < hi && (exp_neg || Bytes.unsafe_get buf !i = '+') then incr i;
    let start = !i in
    while !i < hi && is_digit (Bytes.unsafe_get buf !i) do
      if !exp < 100_000 then exp := (10 * !exp) + Char.code (Bytes.unsafe_get buf !i) - 48;
      incr i
    done;
    exp_ok := !i > start && !exp < 100_000;
    if exp_neg then exp := - !exp
  end;
  let q = !exp - fraction and w = !w in
  if not (!exp_ok && !i = hi && !digits > 0 && !significant <= max_digits) then false
  else if w = 0 then begin
    out.(0) <- (if neg then -0.0 else 0.0);
    true
  end
  else q >= q_min && q <= q_max && eisel_lemire ~neg w q out
