(* ASCII AIGER (aag) reading and writing.  Node ids are renumbered on
   output into the canonical AIGER layout (PIs, then latches, then ANDs),
   so any AIG can be exported. *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Both readers fail closed: every number is parsed by [nat], the header
   may not declare more variables than the input has bytes (which bounds
   every allocation by the input's size), and every literal is
   range-checked before it indexes anything. *)

(* A non-negative decimal field of at most 18 digits (below [max_int]). *)
let nat what s =
  let len = String.length s in
  if len = 0 || len > 18 then parse_error "bad %s: %S" what s;
  let n = ref 0 in
  for k = 0 to len - 1 do
    match s.[k] with
    | '0' .. '9' as c -> n := (!n * 10) + (Char.code c - Char.code '0')
    | _ -> parse_error "bad %s: %S" what s
  done;
  !n

let fields line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

(* The header's M I L O A after the [kind] keyword. *)
let parse_header kind header ~input_bytes =
  match fields header with
  | [ k; m; i; l; o; a ] when k = kind ->
    let field what v = nat ("header field " ^ what) v in
    let m = field "M" m in
    if m > input_bytes then
      parse_error "header declares %d variables, more than the %d-byte input can define" m
        input_bytes;
    (m, field "I" i, field "L" l, field "O" o, field "A" a)
  | _ -> parse_error "bad %s header: %s" kind header

(* The output index of a symbol-table line [o<idx> <name>], if it is one. *)
let output_symbol line =
  if String.length line > 1 && line.[0] = 'o' then
    match String.index_opt line ' ' with
    | Some sp -> (
      match int_of_string_opt (String.sub line 1 (sp - 1)) with
      | Some idx -> Some (idx, String.sub line (sp + 1) (String.length line - sp - 1))
      | None -> None)
    | None -> None
  else None

let to_string t =
  (* renumber: PIs, latches, then and nodes in topological (id) order *)
  let n = Graph.num_nodes t in
  let new_id = Array.make n (-1) in
  new_id.(0) <- 0;
  let counter = ref 0 in
  let assign id =
    incr counter;
    new_id.(id) <- !counter
  in
  List.iter assign (Graph.pis t);
  List.iter assign (Graph.latch_ids t);
  let ands = ref [] in
  for id = 1 to n - 1 do
    match Graph.node t id with
    | Graph.And _ ->
      assign id;
      ands := id :: !ands
    | Graph.Const | Graph.Pi _ | Graph.Latch _ -> ()
  done;
  let ands = List.rev !ands in
  let tr l = (2 * new_id.(Graph.node_of_lit l)) lor (l land 1) in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n_pis = Graph.num_pis t
  and n_latches = Graph.num_latches t
  and pos = Graph.pos t in
  pr "aag %d %d %d %d %d\n" !counter n_pis n_latches (List.length pos)
    (List.length ands);
  List.iter (fun id -> pr "%d\n" (2 * new_id.(id))) (Graph.pis t);
  for i = 0 to n_latches - 1 do
    pr "%d %d %d\n"
      (2 * new_id.(Graph.latch_node t i))
      (tr (Graph.latch_next t i))
      (if Graph.latch_init t i then 1 else 0)
  done;
  List.iter (fun (_, l) -> pr "%d\n" (tr l)) pos;
  List.iter
    (fun id ->
      match Graph.node t id with
      | Graph.And (a, b) -> pr "%d %d %d\n" (2 * new_id.(id)) (tr a) (tr b)
      | Graph.Const | Graph.Pi _ | Graph.Latch _ -> assert false)
    ands;
  (* symbol table: output names *)
  List.iteri (fun i (name, _) -> pr "o%d %s\n" i name) pos;
  Buffer.contents buf

let parse_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let header, rest =
    match lines with [] -> parse_error "empty aag" | h :: rest -> (h, rest)
  in
  let m, i, l, o, a = parse_header "aag" header ~input_bytes:(String.length text) in
  let ints line = List.map (nat "literal") (fields line) in
  let t = Graph.create () in
  (* literal translation table indexed by aag node id *)
  let map = Array.make (m + 1) (-1) in
  map.(0) <- 0;
  (* the variable a PI, latch or AND line defines *)
  let def what lit =
    if lit land 1 = 1 then parse_error "complemented %s definition" what;
    let id = lit / 2 in
    if id < 1 || id > m then parse_error "%s literal %d out of range (M = %d)" what lit m;
    id
  in
  let take k rest =
    let rec go k acc rest =
      if k = 0 then (List.rev acc, rest)
      else
        match rest with
        | [] -> parse_error "truncated aag"
        | line :: rest -> go (k - 1) (line :: acc) rest
    in
    go k [] rest
  in
  let pi_lines, rest = take i rest in
  List.iter
    (fun line ->
      match ints line with
      | [ lit ] -> map.(def "pi" lit) <- Graph.add_pi t
      | _ -> parse_error "bad pi line: %s" line)
    pi_lines;
  let latch_lines, rest = take l rest in
  let latch_nexts =
    List.map
      (fun line ->
        match ints line with
        | [ lit; next ] ->
          let id = def "latch" lit in
          let lat = Graph.add_latch t ~init:false in
          map.(id) <- lat;
          (lat, next)
        | [ lit; next; init ] ->
          let id = def "latch" lit in
          let lat = Graph.add_latch t ~init:(init = 1) in
          map.(id) <- lat;
          (lat, next)
        | _ -> parse_error "bad latch line: %s" line)
      latch_lines
  in
  let po_lines, rest = take o rest in
  let and_lines, rest = take a rest in
  let tr l =
    let id = l / 2 in
    if id > m || map.(id) < 0 then parse_error "undefined literal %d" l;
    map.(id) lxor (l land 1)
  in
  List.iter
    (fun line ->
      match ints line with
      | [ lhs; a; b ] ->
        let id = def "and" lhs in
        map.(id) <- Graph.mk_and t (tr a) (tr b)
      | _ -> parse_error "bad and line: %s" line)
    and_lines;
  List.iter (fun (lat, next) -> Graph.set_latch_next t lat ~next:(tr next)) latch_nexts;
  (* symbol table: pick up output names; default o<i> *)
  let names = Hashtbl.create 8 in
  List.iter
    (fun line ->
      match output_symbol line with
      | Some (idx, name) -> Hashtbl.replace names idx name
      | None -> ())
    rest;
  List.iteri
    (fun idx line ->
      match ints line with
      | [ lit ] ->
        let name =
          match Hashtbl.find_opt names idx with
          | Some n -> n
          | None -> Printf.sprintf "o%d" idx
        in
        Graph.add_po t name (tr lit)
      | _ -> parse_error "bad output line: %s" line)
    po_lines;
  t

let to_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t))

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse_string text

(* --- binary AIGER (aig) ---------------------------------------------------- *)

(* The binary format stores each AND as two 7-bit varints: with the nodes
   renumbered so definitions are topological (PIs, latches, ANDs in
   order), the i-th AND defines literal lhs = 2*(I+L+i+1) and encodes
   lhs - rhs0 and rhs0 - rhs1 with rhs0 >= rhs1 < lhs. *)

let write_varint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let byte = !n land 0x7f in
    n := !n lsr 7;
    if !n <> 0 then Buffer.add_char buf (Char.chr (byte lor 0x80))
    else begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
  done

let to_binary_string t =
  let n = Graph.num_nodes t in
  let new_id = Array.make n (-1) in
  new_id.(0) <- 0;
  let counter = ref 0 in
  let assign id =
    incr counter;
    new_id.(id) <- !counter
  in
  List.iter assign (Graph.pis t);
  List.iter assign (Graph.latch_ids t);
  let ands = ref [] in
  for id = 1 to n - 1 do
    match Graph.node t id with
    | Graph.And _ ->
      assign id;
      ands := id :: !ands
    | Graph.Const | Graph.Pi _ | Graph.Latch _ -> ()
  done;
  let ands = List.rev !ands in
  let tr l = (2 * new_id.(Graph.node_of_lit l)) lor (l land 1) in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n_pis = Graph.num_pis t
  and n_latches = Graph.num_latches t
  and pos = Graph.pos t in
  pr "aig %d %d %d %d %d\n" !counter n_pis n_latches (List.length pos)
    (List.length ands);
  for i = 0 to n_latches - 1 do
    pr "%d %d\n" (tr (Graph.latch_next t i)) (if Graph.latch_init t i then 1 else 0)
  done;
  List.iter (fun (_, l) -> pr "%d\n" (tr l)) pos;
  List.iter
    (fun id ->
      match Graph.node t id with
      | Graph.And (a, b) ->
        let lhs = 2 * new_id.(id) in
        let r0 = tr a and r1 = tr b in
        let rhs0 = max r0 r1 and rhs1 = min r0 r1 in
        write_varint buf (lhs - rhs0);
        write_varint buf (rhs0 - rhs1)
      | Graph.Const | Graph.Pi _ | Graph.Latch _ -> assert false)
    ands;
  List.iteri (fun i (name, _) -> pr "o%d %s\n" i name) pos;
  Buffer.contents buf

let parse_binary_string text =
  let pos = ref 0 in
  let len = String.length text in
  let read_line () =
    match String.index_from_opt text !pos '\n' with
    | Some nl ->
      let line = String.sub text !pos (nl - !pos) in
      pos := nl + 1;
      line
    | None -> parse_error "unexpected end of binary aig"
  in
  let header = read_line () in
  let m, i, l, o, a = parse_header "aig" header ~input_bytes:len in
  if m <> i + l + a then parse_error "binary aig requires M = I + L + A";
  let t = Graph.create () in
  (* literal (in our graph) for each aiger variable *)
  let lit_of_var = Array.make (m + 1) (-1) in
  lit_of_var.(0) <- 0;
  for v = 1 to i do
    lit_of_var.(v) <- Graph.add_pi t
  done;
  let latch_info =
    List.init l (fun j ->
        let line = read_line () in
        match fields line with
        | [ next ] -> (j, nat "latch next" next, false)
        | [ next; init ] -> (j, nat "latch next" next, init = "1")
        | _ -> parse_error "bad binary latch line: %s" line)
  in
  List.iter
    (fun (j, _, init) -> lit_of_var.(i + 1 + j) <- Graph.add_latch t ~init)
    latch_info;
  let po_lits = List.init o (fun _ -> nat "output literal" (read_line ())) in
  (* binary and section *)
  let read_varint () =
    let shift = ref 0 and value = ref 0 and continue = ref true in
    while !continue do
      if !pos >= len then parse_error "truncated varint";
      let byte = Char.code text.[!pos] in
      incr pos;
      value := !value lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then continue := false
    done;
    !value
  in
  let tr l =
    let v = l / 2 in
    if v > m || lit_of_var.(v) < 0 then parse_error "undefined literal %d" l;
    lit_of_var.(v) lxor (l land 1)
  in
  for j = 0 to a - 1 do
    let lhs = 2 * (i + l + 1 + j) in
    let d0 = read_varint () in
    let d1 = read_varint () in
    let rhs0 = lhs - d0 in
    let rhs1 = rhs0 - d1 in
    if d0 < 0 || d1 < 0 || rhs1 < 0 then parse_error "bad deltas for and %d" j;
    lit_of_var.(lhs / 2) <- Graph.mk_and t (tr rhs0) (tr rhs1)
  done;
  List.iter
    (fun (j, next, _) ->
      Graph.set_latch_next t lit_of_var.(i + 1 + j) ~next:(tr next))
    latch_info;
  (* symbol table *)
  let names = Hashtbl.create 8 in
  (try
     while !pos < len do
       let line = read_line () in
       match output_symbol line with
       | Some (idx, name) -> Hashtbl.replace names idx name
       | None -> ()
     done
   with Parse_error _ -> ());
  List.iteri
    (fun idx lit ->
      let name =
        match Hashtbl.find_opt names idx with
        | Some n -> n
        | None -> Printf.sprintf "o%d" idx
      in
      Graph.add_po t name (tr lit))
    po_lits;
  t
