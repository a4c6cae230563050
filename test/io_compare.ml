(* Reads each instance file named on the command line with the
   streaming Io reader and with the list-based oracle, through the
   file and through the file's text, and exits 1 on any difference:
   results bit for bit, error messages up to the graph constructor's
   name.

     dune exec test/io_compare.exe -- FILE...  *)

module Io = Ufp_instance.Io

let check path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let differs how ~oracle ~scanner =
    match Io_oracle.disagreement Io_oracle.same_instance ~oracle ~scanner with
    | None -> false
    | Some d ->
      Printf.eprintf "io_compare: %s (%s): %s\n" path how d;
      true
  in
  let by_load = differs "load" ~oracle:(Io_oracle.load path) ~scanner:(Io.load path) in
  let by_text =
    differs "of_string" ~oracle:(Io_oracle.of_string text) ~scanner:(Io.of_string text)
  in
  if not (by_load || by_text) then
    Printf.printf "io_compare: %s: %d bytes, both readers agree\n" path
      (String.length text);
  by_load || by_text

let () =
  let paths = List.tl (Array.to_list Sys.argv) in
  if paths = [] then begin
    prerr_endline "usage: io_compare FILE...";
    exit 2
  end;
  if List.exists Fun.id (List.map check paths) then exit 1
