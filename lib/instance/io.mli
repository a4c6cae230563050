(** Plain-text (de)serialisation of UFP instances.

    The format is line-oriented and self-describing:

    {v
    ufp 1
    directed 1
    vertices 5
    edges 2
    e 0 1 4.0
    e 1 2 4.0
    requests 1
    r 0 2 1.0 2.5
    v}

    Lines starting with [#] and blank lines are ignored, and each line
    is trimmed of surrounding blanks (CRLF line ends included); words
    are separated by spaces. Floats are printed with full precision
    ([%.17g]) so a round trip is exact.

    Both readers stream their input through one small buffer, so
    reading allocates only the result, never a copy of the file: the
    edge lines feed {!Ufp_graph.Graph.of_edge_stream} directly, which
    builds the graph's CSR adjacency as it goes (counted by
    [graph.stream_builds]).

    Each number reads exactly as [int_of_string_opt] or
    [float_of_string_opt] reads its token, value and error alike. Plain
    decimal tokens (all that {!to_string} writes) are converted where
    they sit in the buffer, without allocating ({!Decimal}); any other
    token is copied out for the standard conversion. *)

val to_string : Instance.t -> string

val of_string : string -> (Instance.t, string) result
(** Parse; the error string names the offending line. Negative
    [vertices]/[edges]/[requests] counts are rejected up front with
    the count's name in the message. An [edges] or [requests] count
    larger than the rest of the input can hold fails at the line where
    the input runs out of such lines, before anything of the declared
    size is allocated. No line bounds the [vertices] count: reading
    allocates O([vertices]) words for the graph's row offsets, even
    with no edges, and a count too large for them to be allocated is an
    [Error] too. Malformed {e content} — an
    out-of-range endpoint, a self loop, a non-positive capacity or
    demand — surfaces as [Error] via the constructors' validation (an
    edge's message names [Graph.of_edge_stream]); exceptions raised
    anywhere else (programmer errors) propagate. *)

val save : string -> Instance.t -> unit
(** [save path inst] writes the instance to a file. *)

val load : string -> (Instance.t, string) result
(** [load path] reads an instance from a file, with the rules and
    messages of {!of_string}; IO failures are reported in the error
    string. A regular file streams through the reader's buffer; a
    source of unknown length (a pipe) is read whole first. *)

val solution_to_string : Solution.t -> string
(** Line-oriented allocation format:

    {v
    ufp-solution 1
    allocations 2
    a 0 3 7
    a 2 1
    v}

    where each [a] line is a request index followed by its edge-id
    path. Pairs with {!to_string}: a solution file only makes sense
    next to its instance file. *)

val solution_of_string : string -> (Solution.t, string) result
(** Parse; structural validity only — feasibility against a specific
    instance is the caller's job ({!Solution.check}). *)

val save_solution : string -> Solution.t -> unit

val load_solution : string -> (Solution.t, string) result
