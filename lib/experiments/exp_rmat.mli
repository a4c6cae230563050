(** EXP-RMAT: Graph500-style scale test — RMAT generation through the
    streaming CSR builder plus many-source shortest-path trials.

    Not a paper artifact: this is the infrastructure experiment that
    certifies the graph layer at the "large capacity networks" scale
    the paper's regime assumes. Each configuration generates an RMAT
    graph ({!Ufp_graph.Generators.rmat}), samples distinct sources with
    nonzero out-degree, and runs one full Dijkstra tree per source
    against a shared uniform-weight snapshot. Throughput is reported as
    TEPS — the [dijkstra.relaxations] {!Ufp_obs.Metrics} counter delta
    divided by elapsed seconds, i.e. CSR slots actually examined per
    second, not a quotient of nominal edge counts. *)

val run : ?quick:bool -> unit -> Ufp_prelude.Table.t list
(** Registry entry point: scales 12/14/16 at edge factor 16 (scale 10
    only under [~quick:true]), one row per configuration. *)
