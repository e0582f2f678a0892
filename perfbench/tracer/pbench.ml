(* The benchmark's own executable.

     pbench gen DIR            read item lines on stdin, write the inputs
     pbench trace SPEC IMPL ENGINE K SPECULATE
                               one traced verification, JSON on stdout

   [gen] builds every input from the suite: the specification is the
   suite circuit written as BLIF or .bench text, the implementation is a
   retime+opt result of the specification as the checker parses it, and
   a faulty implementation is an observable mutant of that.  Each stdin
   line is "ID CIRCUIT FORMAT IMPL_SEED MUTANT_SEED" (MUTANT_SEED 0 means
   no mutant); each answer line on stdout is one JSON object.

   [trace] reads the circuits the way [seqver verify] does (timed calls
   to the readers and the lint preflight), runs
   [Scorr.Verify.run_with_relation] with a progress callback whose
   intervals become the per-iteration spans, then times direct calls
   into the build layers (product build, seeding, engine construction)
   and re-checks the verdict with the certificate checker or the witness
   replayer.  The runtime counters are [Gc.quick_stat] differences
   across the verification call alone.  Spans are kept in memory and
   printed with the counters at the end. *)

module J = Serve.Json

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("pbench: " ^ msg); exit 2) fmt

(* --- spans ---------------------------------------------------------------------- *)

type span = { id : int; name : string; parent : int; start : float; stop : float }

let spans : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []
let epoch = Scorr.Clock.now ()

let record ~parent name start stop =
  let id = !next_id in
  incr next_id;
  spans := { id; name; parent; start = start -. epoch; stop = stop -. epoch } :: !spans

let current () = match !open_spans with p :: _ -> p | [] -> -1

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = current () in
  open_spans := id :: !open_spans;
  let start = Scorr.Clock.now () in
  let finish () =
    open_spans := List.tl !open_spans;
    spans := { id; name; parent; start = start -. epoch; stop = Scorr.Clock.now () -. epoch } :: !spans
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

(* --- reading, as [seqver verify] reads ------------------------------------------- *)

let read path =
  try
    if Filename.check_suffix path ".aag" then begin
      let aig = span "frontend.parse" (fun () -> Aig.Aiger.parse_file path) in
      span "frontend.preflight" (fun () -> Lint.preflight_aig ~subject:path aig);
      aig
    end
    else begin
      let netlist =
        span "frontend.parse" (fun () ->
            if Filename.check_suffix path ".bench" then Netlist.Bench.parse_file ~lenient:true path
            else Netlist.Blif.parse_file ~lenient:true path)
      in
      span "frontend.preflight" (fun () -> Lint.preflight_netlist ~subject:path netlist);
      span "frontend.parse" (fun () -> fst (Aig.of_netlist netlist))
    end
  with
  | Lint.Rejected report -> fail "%s rejected by preflight:\n%s" path report
  | Netlist.Blif.Parse_error msg | Netlist.Bench.Parse_error msg | Aig.Aiger.Parse_error msg ->
    fail "%s: parse error: %s" path msg

(* --- gen ---------------------------------------------------------------------------- *)

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let spec_file dir name fmt =
  let path = Filename.concat dir (Printf.sprintf "%s.%s" name fmt) in
  if not (Sys.file_exists path) then begin
    let entry =
      match Circuits.Suite.find name with Some e -> e | None -> fail "unknown suite circuit %s" name
    in
    let netlist = entry.Circuits.Suite.build () in
    write_file path
      (match fmt with
      | "blif" -> Netlist.Blif.to_string netlist
      | "bench" -> Netlist.Bench.to_string netlist
      | f -> fail "unknown spec format %s" f)
  end;
  path

(* A mutant for the first seed, counting up from [seed], whose fault the
   bounded simulation observes; deterministic in [seed]. *)
let mutant ~seed impl =
  let rec go s =
    if s >= seed + 32 then fail "no observable mutant for seeds %d..%d" seed (s - 1)
    else
      match Transform.Mutate.observable_mutant ~seed:s impl with
      | Some (m, fault) -> (m, Format.asprintf "%a" Transform.Mutate.pp_fault fault)
      | None -> go (s + 1)
  in
  go seed

let gen dir =
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line -> (
      match String.split_on_char ' ' (String.trim line) with
      | [ id; name; fmt; impl_seed; mutant_seed ] ->
        let spec_path = spec_file dir name fmt in
        let spec = read spec_path in
        let impl =
          Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_opt
            ~seed:(int_of_string impl_seed) spec
        in
        let impl, fault =
          match int_of_string mutant_seed with
          | 0 -> (impl, J.Null)
          | seed ->
            let m, fault = mutant ~seed impl in
            (m, J.String fault)
        in
        let impl_path = Filename.concat dir (id ^ ".aag") in
        Aig.Aiger.to_file impl_path impl;
        print_endline
          (J.to_string
             (J.Obj
                [
                  ("id", J.String id);
                  ("spec", J.String spec_path);
                  ("impl", J.String impl_path);
                  ("fault", fault);
                  ("spec_ands", J.Int (Aig.num_ands spec));
                  ("impl_ands", J.Int (Aig.num_ands impl));
                ]));
        loop ()
      | _ -> fail "bad item line %S" line)
  in
  loop ()

(* --- trace -------------------------------------------------------------------------- *)

let verdict_name = function
  | Scorr.Equivalent _ -> "equivalent"
  | Scorr.Not_equivalent _ -> "not_equivalent"
  | Scorr.Unknown _ -> "unknown"

let trace spec_path impl_path engine k speculate =
  let engine =
    match engine with
    | "sat" -> Scorr.Verify.Sat_engine
    | "bdd" -> Scorr.Verify.Bdd_engine
    | e -> fail "unknown engine %s" e
  in
  (* the option record [seqver verify] builds for these flags *)
  let options =
    {
      Scorr.default_options with
      Scorr.Verify.engine;
      sat_unroll = k;
      use_speculation = speculate;
      jobs = 1;
    }
  in
  let input_bytes =
    (Unix.stat spec_path).Unix.st_size + (Unix.stat impl_path).Unix.st_size
  in
  let seed_splits = ref 0 and product_nodes = ref 0 in
  let bdd_made = ref 0 and bdd_memo = ref 0 in
  let created = ref 0 in
  let gc_run = ref (Gc.quick_stat (), Gc.quick_stat ()) in
  let gate = ref "" in
  let (verdict, _, _) =
    span "pair" (fun () ->
        let spec = read spec_path and impl = read impl_path in
        (* the runtime counters cover [Verify.run] alone: the direct
           calls and the checks below are the benchmark's own work *)
        let gc0 = Gc.quick_stat () in
        let run =
          span "verify.run" (fun () ->
              let parent = current () in
              let last = ref (Scorr.Clock.now ()) and last_iter = ref (-1) and last_classes = ref 0 in
              let progress (p : Scorr.Verify.progress) =
                let t = Scorr.Clock.now () in
                let iteration = p.Scorr.Verify.p_iteration > !last_iter && !last_iter >= 0 in
                record ~parent (if iteration then "verify.iteration" else "verify.initial") !last t;
                if iteration then created := !created + (p.p_classes - !last_classes);
                last := t;
                last_iter := p.p_iteration;
                last_classes := p.p_classes
              in
              Scorr.Verify.run_with_relation
                ~options:{ options with Scorr.Verify.progress = Some progress }
                spec impl)
        in
        gc_run := (gc0, Gc.quick_stat ());
        let product = span "product.make" (fun () -> Scorr.Product.make spec impl) in
        product_nodes := Aig.num_nodes product.Scorr.Product.aig;
        seed_splits :=
          span "seed.refine" (fun () ->
              let pol = Scorr.Product.reference_values ~seed:options.seed product in
              let p =
                Scorr.Partition.create ~n_nodes:!product_nodes
                  ~candidates:(Scorr.Product.candidate_nodes product) ~pol
              in
              let sim =
                Scorr.Simseed.refine ~seed:options.seed ~n_frames:options.sim_frames product p
              in
              sim + Scorr.Ternseed.refine product p);
        (match engine with
        | Scorr.Verify.Sat_engine ->
          span "sat.make" (fun () ->
              Scorr.Engine_sat.shutdown
                (Scorr.Engine_sat.make ~max_sat_calls:options.max_sat_calls ~k ~jobs:1 product))
        | Scorr.Verify.Bdd_engine ->
          span "bdd.make" (fun () ->
              let ctx =
                Scorr.Engine_bdd.make ~use_fundep:options.use_fundep
                  ~latch_order:(Scorr.Verify.latch_order_from_outputs product)
                  ~node_limit:options.node_limit product
              in
              bdd_made := Bdd.made_nodes ctx.Scorr.Engine_bdd.m;
              bdd_memo := Bdd.memo_entries ctx.Scorr.Engine_bdd.m;
              Scorr.Engine_bdd.shutdown ctx));
        (match run with
        | (Scorr.Equivalent _, _, _) -> (
          match span "cert.check" (fun () ->
                    match Cert.Certificate.of_run ~options ~spec ~impl run with
                    | Error e -> Error (Cert.Certificate.explain_emit_error e)
                    | Ok cert ->
                      Result.map_error Cert.Certificate.explain_check_error
                        (Cert.Certificate.check ~spec ~impl cert))
          with
          | Ok () -> ()
          | Error msg -> gate := "certificate rejected: " ^ msg)
        | (Scorr.Not_equivalent { trace = Some inputs; _ }, _, _) -> (
          match span "witness.replay" (fun () ->
                    Cert.Witness.replay ~spec ~impl (Cert.Witness.of_trace inputs))
          with
          | Ok _ -> ()
          | Error e -> gate := "witness does not replay: " ^ Cert.Witness.explain_error e)
        | (Scorr.Not_equivalent { trace = None; _ }, _, _) -> gate := "refutation without a trace"
        | (Scorr.Unknown _, _, _) -> ());
        run)
  in
  let s = Scorr.verdict_stats verdict in
  let gc0, gc1 = !gc_run in
  let int_fields =
    [
      ("iterations", s.Scorr.Verify.iterations);
      ("retime_rounds", s.retime_rounds);
      ("classes", s.classes);
      ("peak_bdd_nodes", s.peak_bdd_nodes);
      ("sat_calls", s.sat_calls);
      ("pool_lanes", s.pool_lanes);
      ("resim_splits", s.resim_splits);
      ("batched_solves", s.batched_solves);
      ("cache_hits", s.cache_hits);
      ("static_splits", s.static_splits);
      ("spec_rounds", s.spec_rounds);
      ("spec_merges", s.spec_merges);
      ("refuted_assumptions", s.refuted_assumptions);
      ("spec_by_sim", s.spec_by_sim);
      ("spec_by_bdd", s.spec_by_bdd);
      ("spec_by_sat", s.spec_by_sat);
      ("conflicts", s.conflicts);
      ("propagations", s.propagations);
      ("restarts", s.restarts);
      ("encoded_vars", s.encoded_vars);
      ("reused_clauses", s.reused_clauses);
      ("core_prunes", s.core_prunes);
      ("seed_splits", !seed_splits);
      ("product_nodes", !product_nodes);
      ("input_bytes", input_bytes);
      ("bdd_made_nodes", !bdd_made);
      ("bdd_memo_entries", !bdd_memo);
      ("classes_created", !created);
      ("gc_minor_words", int_of_float (gc1.Gc.minor_words -. gc0.Gc.minor_words));
      ("gc_promoted_words", int_of_float (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
      ("gc_major_collections", gc1.Gc.major_collections - gc0.Gc.major_collections);
      ("gc_top_heap_words", gc1.Gc.top_heap_words);
    ]
  in
  print_endline
    (J.to_string
       (J.Obj
          ([
             ("verdict", J.String (verdict_name verdict));
             ("gate", if !gate = "" then J.Null else J.String !gate);
             ("eq_pct", J.Float s.eq_pct);
             ("seconds", J.Float s.seconds);
             ("word_bytes", J.Int (Sys.word_size / 8));
             ( "phases",
               J.Obj (List.map (fun (name, t) -> (name, J.Float t)) s.phase_seconds) );
             ( "spans",
               J.List
                 (List.rev_map
                    (fun sp ->
                      J.List
                        [ J.Int sp.id; J.String sp.name; J.Int sp.parent; J.Float sp.start;
                          J.Float sp.stop ])
                    !spans) );
           ]
          @ List.map (fun (k, v) -> (k, J.Int v)) int_fields)))

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; dir ] -> gen dir
  | [ _; "trace"; spec; impl; engine; k; speculate ] ->
    trace spec impl engine (int_of_string k) (speculate = "1")
  | _ ->
    prerr_endline
      "usage: pbench gen DIR < items\n       pbench trace SPEC IMPL ENGINE K SPECULATE(0|1)";
    exit 2
