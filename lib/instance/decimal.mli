(** Exact conversion of plain decimal number tokens, in place.

    The instance reader ({!Io}) converts every number where it sits in
    its scan buffer. The fast paths below take the plain decimal
    tokens, allocate nothing, and return what [int_of_string_opt] and
    [float_of_string_opt] return for the same bytes, bit for bit. Any
    other token is left to the caller, who passes it to the standard
    function, so each value and each error stays the standard one.

    Floats are converted by the Eisel–Lemire algorithm (D. Lemire,
    "Number parsing at a gigabyte per second", arXiv:2101.11408): the
    significand [w] left-normalised to 64 bits times a 128-bit
    truncated power of five, a precision check, and rounding to
    nearest-even. Its table covers the decimal exponents [q] in
    \[-26, 55\] and is built at initialisation with exact integer
    arithmetic. With at most 18 significant digits, every value in that
    range lies in \[1e-26, 1e73), so every result is a normal double:
    a nonzero token that would read as subnormal, zero or infinity
    falls back because its [q] lies outside the table. *)

val int_in : Bytes.t -> int -> int -> int
(** [int_in buf lo hi] is the value of the token [buf.[lo .. hi - 1]]
    when it is 1 to 18 ASCII digits, and [-1] otherwise: a sign, a
    [0x]/[0o]/[0b] prefix, an underscore, a 19th digit or any other
    byte leaves the token to [int_of_string_opt]. Raises
    [Invalid_argument] unless [0 <= lo <= hi <= Bytes.length buf]. *)

val float_in : Bytes.t -> int -> int -> float array -> bool
(** [float_in buf lo hi out] stores in [out.(0)] the double nearest the
    token [buf.[lo .. hi - 1]], ties to even, and returns [true] when
    the token has the form [\[+-\]digits\[.digits\]\[(e|E)\[+-\]digits\]]
    with at least one digit before the exponent, at most 18 significant
    digits, a decimal exponent inside the table (or a zero
    significand), and a rounding the 128-bit product decides. It
    returns [false], leaving [out] alone, for every other token:
    underscores, hexadecimal floats, [nan], [inf], more digits, a
    decimal exponent outside the table. Raises [Invalid_argument]
    unless [0 <= lo <= hi <= Bytes.length buf]. *)
