(* Reads each instance file named on the command line with the
   streaming Io reader and with the list-based oracle, through the
   file and through the file's text, and exits 1 on any difference:
   results bit for bit, error messages up to the graph constructor's
   name. The two instances read from the file are compared again with
   their CSRs (row offsets and both halves of every packed cell), then
   normalized and compared once more: the streamed graph's cells were
   written by [Graph.of_edge_stream], the oracle's by [Graph.csr]
   over its add_edge columns, and [Instance.normalize] rescales each
   side's columns and shares its cells.

     dune exec test/io_compare.exe -- FILE...  *)

module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
module Io = Ufp_instance.Io

(* Equal row offsets, and equal (fst, snd) halves in every slot. *)
let same_rows a b =
  let ca = Graph.csr a and cb = Graph.csr b in
  let cells_a = ca.Graph.Csr.cells and cells_b = cb.Graph.Csr.cells in
  let slots = Graph.Csr.Cells.length cells_a in
  let rec same_from k =
    k = slots
    || Graph.Csr.Cells.fst cells_a k = Graph.Csr.Cells.fst cells_b k
       && Graph.Csr.Cells.snd cells_a k = Graph.Csr.Cells.snd cells_b k
       && same_from (k + 1)
  in
  ca.Graph.Csr.row_start = cb.Graph.Csr.row_start
  && Graph.Csr.Cells.length cells_b = slots
  && same_from 0

let with_rows a b =
  Io_oracle.same_instance a b && same_rows (Instance.graph a) (Instance.graph b)

let normalized = function
  | Ok inst -> ( try Ok (Instance.normalize inst) with Invalid_argument msg -> Error msg)
  | Error _ as e -> e

let check path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let differs how same ~oracle ~scanner =
    match Io_oracle.disagreement same ~oracle ~scanner with
    | None -> false
    | Some d ->
      Printf.eprintf "io_compare: %s (%s): %s\n" path how d;
      true
  in
  let oracle = Io_oracle.load path and scanner = Io.load path in
  let by_load = differs "load" with_rows ~oracle ~scanner in
  let by_text =
    differs "of_string" Io_oracle.same_instance ~oracle:(Io_oracle.of_string text)
      ~scanner:(Io.of_string text)
  in
  let by_normalize =
    differs "normalize" with_rows ~oracle:(normalized oracle)
      ~scanner:(normalized scanner)
  in
  let differ = by_load || by_text || by_normalize in
  if not differ then
    Printf.printf "io_compare: %s: %d bytes, both readers agree, normalized too\n" path
      (String.length text);
  differ

let () =
  let paths = List.tl (Array.to_list Sys.argv) in
  if paths = [] then begin
    prerr_endline "usage: io_compare FILE...";
    exit 2
  end;
  if List.exists Fun.id (List.map check paths) then exit 1
