(* Compiled-execution bench: the closure-compiled batch backend against
   the tuple-at-a-time interpreter.

   Part 1 — per-operator EXPLAIN ANALYZE timings of the grandparent
   self-join over a full binary tree, one column per backend: where does
   closure compilation actually save time, operator by operator?

   Part 2 — ad hoc SQL throughput: the same self-join executed
   repeatedly, median wall-clock per backend.

   Part 3 — the headline number: end-to-end magic-sets ancestor LFP
   (goal bound at the tree root, so the magic set is the whole relation
   and the executor dominates the loop) with the paper's statement
   sequence, wall-clock per backend. The
   backends must agree on answers and iteration counts; the compiled
   backend must not be slower, and at full scale must win by >= 3x.

   Part 4 — the same LFP on the compiled backend under the two semi-naive
   member steps: the fused merge (INSERT ... NEW INTO) against the
   paper's statement sequence (EXCEPT, COUNT( * ), two copies). Reports
   wall clock, the four phase buckets and allocation per derived tuple.
   The loops must agree on answers and iterations, and the fused one must
   not be slower.

   Writes BENCH_exec.json. *)

module Session = Core.Session
module Runtime = Core.Runtime
module Engine = Rdbms.Engine
module Stats = Rdbms.Stats
module Profile = Rdbms.Profile
module Graphgen = Workload.Graphgen
module Queries = Workload.Queries

let backends =
  [ ("interpreted", Engine.Interpreted); ("compiled", Engine.Compiled) ]

let tree_session depth =
  let s = Common.bench_session () in
  let tree = Graphgen.full_binary_tree ~depth () in
  Common.ok (Queries.setup_parent s tree.Graphgen.t_edges);
  Common.ok (Session.load_rules s Queries.ancestor_rules);
  (s, tree)

let grandparent_sql =
  "SELECT p1.par, p3.child FROM parent p1, parent p2, parent p3 \
   WHERE p1.child = p2.par AND p2.child = p3.par"

(* ------------------------------------------------------------------ *)
(* Part 1: per-operator EXPLAIN ANALYZE under each backend *)

type op_timing = {
  ot_op : string;
  ot_rows : int;
  ot_interp_ms : float;
  ot_compiled_ms : float;
}

let flatten profile =
  let rec go depth (n : Profile.t) =
    (String.make (2 * depth) ' ' ^ n.Profile.op, n.Profile.rows, n.Profile.ms)
    :: List.concat_map (go (depth + 1)) (Profile.children n)
  in
  go 0 profile

let analyze_timings depth =
  let profile_of backend =
    let s, _ = tree_session depth in
    let engine = Session.engine s in
    Engine.set_exec_backend engine backend;
    (* warm the statement cache so we time execution, not planning *)
    ignore (Engine.exec engine grandparent_sql : Engine.result);
    let _, profile, _ = Engine.exec_analyze engine grandparent_sql in
    flatten profile
  in
  let interp = profile_of Engine.Interpreted in
  let compiled = profile_of Engine.Compiled in
  List.map2
    (fun (op, rows, ims) (op', _, cms) ->
      assert (op = op');
      { ot_op = op; ot_rows = rows; ot_interp_ms = ims; ot_compiled_ms = cms })
    interp compiled

(* ------------------------------------------------------------------ *)
(* Part 2: ad hoc SQL throughput *)

let adhoc_samples depth repeat backend =
  let s, _ = tree_session depth in
  let engine = Session.engine s in
  Engine.set_exec_backend engine backend;
  ignore (Engine.exec engine grandparent_sql : Engine.result);
  List.init repeat (fun _ ->
      Dkb_util.Timer.time_unit (fun () ->
          ignore (Engine.exec engine grandparent_sql : Engine.result)))

(* ------------------------------------------------------------------ *)
(* Part 3: end-to-end magic-sets LFP *)

type lfp_run = {
  lr_backend : string;
  lr_ms : float;
  lr_answers : int;
  lr_iterations : (string * int) list;
}

(* The backend comparison runs the paper's statement sequence, the loop
   its >= 3x headline was set on: the EXCEPT and copy statements go
   through the executor there. The fused merge moves that work into the
   engine's insert path, where both backends share the code, so on the
   default loop the backends differ by less (part 4 measures that loop). *)
let lfp_run depth repeat (name, backend) =
  let s, tree = tree_session depth in
  let options =
    {
      Session.default_options with
      exec = backend;
      optimize = Core.Compiler.Opt_on;
      paper_loop = true;
    }
  in
  let goal = Queries.ancestor_goal tree.Graphgen.t_root in
  let last = ref None in
  let ms =
    Common.measure ~repeat (fun () ->
        (* collect the previous backend's (and repeat's) garbage up front
           so major-GC pauses for dead heaps aren't charged to whichever
           backend happens to run second *)
        Gc.full_major ();
        let answer = Common.ok (Session.query_goal s ~options goal) in
        last := Some answer;
        answer.Session.total_ms)
  in
  let answer = match !last with Some a -> a | None -> assert false in
  {
    lr_backend = name;
    lr_ms = ms;
    lr_answers = List.length answer.Session.run.Runtime.rows;
    lr_iterations = answer.Session.run.Runtime.iterations;
  }

(* ------------------------------------------------------------------ *)
(* Part 4: fused merge vs the paper's statement sequence *)

type loop_run = {
  lo_loop : string;
  lo_ms : float;  (* median end-to-end ms *)
  lo_answers : int;
  lo_iterations : (string * int) list;
  lo_derived : int;  (* tuples the iterations found new: the sum of the deltas *)
  lo_buckets : (string * float) list;  (* median ms per phase bucket *)
  lo_minor : float;  (* median minor words per run *)
  lo_major : float;
}

let loops = [ ("fused", false); ("paper", true) ]

(* Runs alternate between the loops, after a full major collection each,
   so drift and dead heaps weigh on both alike. *)
let loop_runs depth repeat =
  let s, tree = tree_session depth in
  let goal = Queries.ancestor_goal tree.Graphgen.t_root in
  let samples = Hashtbl.create 2 in
  for _ = 1 to repeat do
    List.iter
      (fun (name, paper_loop) ->
        let options = { Session.default_options with optimize = Core.Compiler.Opt_on; paper_loop } in
        Gc.full_major ();
        let minor0, _, major0 = Gc.counters () in
        let answer = Common.ok (Session.query_goal s ~options goal) in
        let minor1, _, major1 = Gc.counters () in
        Hashtbl.add samples name (answer, minor1 -. minor0, major1 -. major0))
      loops
  done;
  List.map
    (fun (name, _) ->
      let runs = Hashtbl.find_all samples name in
      let med f = Dkb_util.Percentile.median (List.map f runs) in
      let answer, _, _ = List.hd runs in
      let run = answer.Session.run in
      {
        lo_loop = name;
        lo_ms = med (fun (a, _, _) -> a.Session.total_ms);
        lo_answers = List.length run.Runtime.rows;
        lo_iterations = run.Runtime.iterations;
        lo_derived =
          List.fold_left
            (fun acc ip -> List.fold_left (fun acc (_, n) -> acc + n) acc ip.Runtime.ip_deltas)
            0 run.Runtime.profile;
        lo_buckets =
          List.map
            (fun b ->
              (b, med (fun (a, _, _) -> Dkb_util.Timer.Phases.get a.Session.run.Runtime.phases b)))
            Runtime.phase_buckets;
        lo_minor = med (fun (_, minor, _) -> minor);
        lo_major = med (fun (_, _, major) -> major);
      })
    loops

let per_tuple r words = if r.lo_derived > 0 then words /. float_of_int r.lo_derived else 0.0

(* ------------------------------------------------------------------ *)

let run ?(json_path = "BENCH_exec.json") ~scale () =
  Common.section "Compiled-execution bench"
    "Closure-compiled batch execution vs the tuple-at-a-time interpreter:\n\
     per-operator EXPLAIN ANALYZE timings, ad hoc join throughput, and\n\
     the end-to-end magic-sets ancestor LFP. Writes BENCH_exec.json.";
  let depth, repeat =
    match scale with Common.Full -> (14, 5) | Common.Quick -> (9, 5)
  in
  let edges = (1 lsl depth) - 2 in

  (* --- part 1: per-operator timings --------------------------------- *)
  let ops = analyze_timings depth in
  Printf.printf "  per-operator EXPLAIN ANALYZE, grandparent self-join (%d edges)\n"
    edges;
  Common.print_table
    ~header:[ "operator"; "rows"; "interpreted"; "compiled" ]
    (List.map
       (fun o ->
         [
           o.ot_op;
           string_of_int o.ot_rows;
           Common.fmt_ms o.ot_interp_ms;
           Common.fmt_ms o.ot_compiled_ms;
         ])
       ops);

  (* --- part 2: ad hoc throughput ------------------------------------ *)
  let samples_i = adhoc_samples depth repeat Engine.Interpreted in
  let samples_c = adhoc_samples depth repeat Engine.Compiled in
  let adhoc_i = Dkb_util.Percentile.median samples_i in
  let adhoc_c = Dkb_util.Percentile.median samples_c in
  let adhoc_speedup = if adhoc_c > 0.0 then adhoc_i /. adhoc_c else 1.0 in
  Printf.printf "\n  ad hoc self-join: interpreted %s, compiled %s (%.2fx)\n"
    (Common.fmt_ms adhoc_i) (Common.fmt_ms adhoc_c) adhoc_speedup;

  (* --- part 3: magic-sets LFP --------------------------------------- *)
  let runs = List.map (lfp_run depth repeat) backends in
  let interp = List.find (fun r -> r.lr_backend = "interpreted") runs in
  let compiled = List.find (fun r -> r.lr_backend = "compiled") runs in
  let speedup = if compiled.lr_ms > 0.0 then interp.lr_ms /. compiled.lr_ms else 1.0 in
  Printf.printf "\n  magic-sets ancestor LFP from the root (%d edges)\n" edges;
  Common.print_table
    ~header:[ "backend"; "wall clock"; "answers"; "iterations" ]
    (List.map
       (fun r ->
         [
           r.lr_backend;
           Common.fmt_ms r.lr_ms;
           string_of_int r.lr_answers;
           string_of_int (List.fold_left (fun a (_, n) -> a + n) 0 r.lr_iterations);
         ])
       runs);
  Printf.printf "  end-to-end speedup: %.2fx\n" speedup;
  ignore
    (Common.shape "both backends return the same answers"
       (interp.lr_answers = compiled.lr_answers));
  ignore
    (Common.shape "both backends take the same iterations"
       (interp.lr_iterations = compiled.lr_iterations));
  ignore
    (Common.shape "compiled LFP wall-clock <= interpreted"
       (compiled.lr_ms <= interp.lr_ms));
  let target = 3.0 in
  let met = speedup >= target in
  (match scale with
  | Common.Full ->
      ignore (Common.shape (Printf.sprintf "compiled >= %.0fx faster end-to-end" target) met)
  | Common.Quick -> ());

  (* --- part 4: fused merge vs paper loop ------------------------------ *)
  let loop_results = loop_runs depth repeat in
  let fused = List.find (fun r -> r.lo_loop = "fused") loop_results in
  let paper = List.find (fun r -> r.lo_loop = "paper") loop_results in
  let loop_speedup = if fused.lo_ms > 0.0 then paper.lo_ms /. fused.lo_ms else 1.0 in
  Printf.printf "\n  semi-naive member step, compiled backend, same LFP (%d derived tuples)\n"
    fused.lo_derived;
  Common.print_table
    ~header:
      ([ "loop"; "wall clock" ] @ Runtime.phase_buckets @ [ "minor w/tuple"; "major w/tuple" ])
    (List.map
       (fun r ->
         [ r.lo_loop; Common.fmt_ms r.lo_ms ]
         @ List.map (fun (_, ms) -> Common.fmt_ms ms) r.lo_buckets
         @ [
             Printf.sprintf "%.0f" (per_tuple r r.lo_minor);
             Printf.sprintf "%.0f" (per_tuple r r.lo_major);
           ])
       loop_results);
  Printf.printf "  fused speedup over the paper loop: %.2fx\n" loop_speedup;
  let same_answers = fused.lo_answers = paper.lo_answers in
  let same_iterations = fused.lo_iterations = paper.lo_iterations in
  let not_slower = fused.lo_ms <= paper.lo_ms in
  ignore (Common.shape "fused and paper loops return the same answers" same_answers);
  ignore (Common.shape "fused and paper loops take the same iterations" same_iterations);
  ignore (Common.shape "fused loop wall-clock <= paper loop" not_slower);

  (* --- BENCH_exec.json ---------------------------------------------- *)
  let loop_json r =
    Printf.sprintf
      {|{ "loop": "%s", "ms": %.3f, "answers": %d, "iterations": %d, %s, "minor_words_per_tuple": %.1f, "major_words_per_tuple": %.1f }|}
      r.lo_loop r.lo_ms r.lo_answers
      (List.fold_left (fun a (_, n) -> a + n) 0 r.lo_iterations)
      (String.concat ", "
         (List.map (fun (b, ms) -> Printf.sprintf {|"%s_ms": %.3f|} b ms) r.lo_buckets))
      (per_tuple r r.lo_minor) (per_tuple r r.lo_major)
  in
  let op_json o =
    Printf.sprintf
      {|{ "op": "%s", "rows": %d, "interpreted_ms": %.3f, "compiled_ms": %.3f }|}
      (Rdbms.Profile.json_escape (String.trim o.ot_op))
      o.ot_rows o.ot_interp_ms o.ot_compiled_ms
  in
  let json =
    Printf.sprintf
      {|{
  "experiment": "exec",
  "scale": "%s",
  "analyze": {
    "sql": "%s",
    "edges": %d,
    "operators": [
      %s
    ]
  },
  "adhoc_join": { "repeat": %d, "interpreted_ms": %.3f, "compiled_ms": %.3f, "speedup": %.2f,
    "interpreted_latency": %s,
    "compiled_latency": %s },
  "lfp_magic": {
    "workload": "magic-sets ancestor from the root of a full binary tree, paper statement sequence",
    "edges": %d,
    "answers": %d,
    "interpreted_ms": %.3f,
    "compiled_ms": %.3f,
    "speedup": %.2f,
    "target_speedup": %.1f,
    "met": %b
  },
  "lfp_loop": {
    "workload": "magic-sets ancestor from the root, compiled backend, fused merge vs paper statement sequence",
    "depth": %d,
    "repeat": %d,
    "derived_tuples": %d,
    "runs": [
      %s
    ],
    "speedup": %.2f,
    "same_answers": %b,
    "same_iterations": %b,
    "fused_not_slower": %b
  }
}
|}
      (match scale with Common.Full -> "full" | Common.Quick -> "quick")
      (Rdbms.Profile.json_escape grandparent_sql)
      edges
      (String.concat ",\n      " (List.map op_json ops))
      repeat adhoc_i adhoc_c adhoc_speedup
      (Dkb_util.Percentile.json (Dkb_util.Percentile.summarize samples_i))
      (Dkb_util.Percentile.json (Dkb_util.Percentile.summarize samples_c))
      edges compiled.lr_answers interp.lr_ms compiled.lr_ms speedup target met depth repeat
      fused.lo_derived
      (String.concat ",\n      " (List.map loop_json loop_results))
      loop_speedup same_answers same_iterations not_slower
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "  wrote %s\n" json_path
