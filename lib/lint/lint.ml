(* Circuit lint: diagnostics, renderers and preflight gating.

   The rules live next to the representations they inspect —
   [Netlist.Check] for gate-level circuits, [Aig_check] here for AIGs —
   and share the [Netlist.Diag] data model.  This facade adds the
   user-facing surface: human and JSON reports, the exit-code policy of
   `seqver lint`, and the preflight hook the verification pipeline uses to
   reject structurally broken circuits before spending SAT effort on
   them. *)

module Diag = Netlist.Diag
module Aig_check = Aig_check
module Aig_ternary = Aig_ternary
module Analysis_rules = Analysis_rules

(* --- running the rules ----------------------------------------------------- *)

let check_netlist ?ternary_steps c = Netlist.Check.run ?ternary_steps c

(* [analysis] adds the [Analysis_rules] catalog (unobservable-latch,
   reducible-logic).  Opt-in: reducible-logic runs the SAT-discharged
   reduction, and both rules assume a structurally sound graph, so they
   only run when the error-level rules all passed. *)
let check_aig ?ternary_steps ?(analysis = false) aig =
  let diags = Aig_check.run ?ternary_steps aig in
  if analysis && Diag.errors diags = [] then
    Aig_check.sort_report (Analysis_rules.run aig @ diags)
  else diags

(* --- human report ----------------------------------------------------------- *)

let summary_line ~subject diags =
  if diags = [] then Printf.sprintf "%s: clean" subject
  else
    Printf.sprintf "%s: %d error(s), %d warning(s), %d info" subject
      (Diag.count Diag.Error diags)
      (Diag.count Diag.Warning diags)
      (Diag.count Diag.Info diags)

let render ~subject diags =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (summary_line ~subject diags);
  Buffer.add_char buf '\n';
  List.iter
    (fun d ->
      Buffer.add_string buf "  ";
      Buffer.add_string buf (Diag.to_string d);
      Buffer.add_char buf '\n')
    diags;
  Buffer.contents buf

(* --- JSON report ------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | ch when Char.code ch < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let json_of_diag d =
  let nets =
    String.concat ","
      (List.map
         (fun (net, name) ->
           match name with
           | Some n -> Printf.sprintf {|{"net":%d,"name":"%s"}|} net (json_escape n)
           | None -> Printf.sprintf {|{"net":%d,"name":null}|} net)
         d.Diag.nets)
  in
  Printf.sprintf {|{"rule":"%s","severity":"%s","message":"%s","nets":[%s]}|}
    (json_escape d.Diag.rule)
    (Diag.severity_name d.Diag.severity)
    (json_escape d.Diag.message)
    nets

(* Schema: {"subject": string, "diagnostics": [{"rule": string,
   "severity": "error"|"warning"|"info", "message": string,
   "nets": [{"net": int, "name": string|null}]}]} *)
let to_json ~subject diags =
  Printf.sprintf {|{"subject":"%s","diagnostics":[%s]}|} (json_escape subject)
    (String.concat "," (List.map json_of_diag diags))

(* --- exit-code policy ------------------------------------------------------- *)

(* `seqver lint`: 0 clean (or only advisory findings without [--strict]),
   1 worst finding is a warning under [--strict], 2 errors under
   [--strict].  Parse failures are always exit 2 (handled by the CLI). *)
let exit_code ~strict diags =
  if not strict then 0
  else
    match Diag.worst diags with
    | Some Diag.Error -> 2
    | Some Diag.Warning -> 1
    | Some Diag.Info | None -> 0

(* --- preflight --------------------------------------------------------------- *)

exception Rejected of string
(** Raised by the preflight checks with a rendered multi-diagnostic
    report; the verification pipeline refuses to run on circuits with
    error-level defects. *)

let preflight_netlist ~subject c =
  match Netlist.Check.errors c with
  | [] -> ()
  | errs -> raise (Rejected (render ~subject errs))

let preflight_aig ~subject aig =
  match Aig_check.errors aig with
  | [] -> ()
  | errs -> raise (Rejected (render ~subject errs))

(* --- circuit intake ----------------------------------------------------------- *)

(* Read a circuit file for verification, dispatching on its suffix:
   [.aag] ASCII and [.aig] binary AIGER, [.v] structural Verilog (lowered
   to plain latches), [.bench], and BLIF otherwise.  Netlists are parsed
   leniently so the preflight reports every defect at once; Verilog is
   preflighted both as written and after lowering.  Parse, lowering,
   preflight and file errors come back as [Error] with the message to
   show. *)
let load_circuit path =
  let has = Filename.check_suffix path in
  try
    if has ".aag" || has ".aig" then begin
      let aig =
        if has ".aag" then Aig.Aiger.parse_file path
        else Aig.Aiger.parse_binary_string (In_channel.with_open_bin path In_channel.input_all)
      in
      preflight_aig ~subject:path aig;
      Ok aig
    end
    else begin
      let netlist =
        if has ".v" then begin
          let design = Netlist.Verilog.parse_file ~lenient:true path in
          preflight_netlist ~subject:path (Netlist.Clocking.circuit design);
          Netlist.Clocking.lower design
        end
        else if has ".bench" then Netlist.Bench.parse_file ~lenient:true path
        else Netlist.Blif.parse_file ~lenient:true path
      in
      preflight_netlist ~subject:path netlist;
      Ok (fst (Aig.of_netlist netlist))
    end
  with
  | Rejected report -> Error (String.trim report)
  | Netlist.Blif.Parse_error msg | Netlist.Bench.Parse_error msg
  | Netlist.Verilog.Parse_error msg | Aig.Aiger.Parse_error msg ->
    Error (Printf.sprintf "%s: parse error: %s" path msg)
  | Netlist.Clocking.Lower_error msg -> Error (Printf.sprintf "%s: clocking error: %s" path msg)
  | Sys_error msg -> Error msg
