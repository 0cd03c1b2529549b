(* The repository benchmark: four workloads over the D/KB testbed.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--tiny] [--dkbd PATH] [--out DIR] [--rev REV]

   --trace 0 measures what a user of the system sees (the end_to_end
   metrics of BENCHMARK.json), with timings scaled to a reference host
   speed (see [Calib]). --trace 1 measures the per-layer split
   (the per_layer metrics): the first half of the run is untraced, the
   second half records a span around every public call into a layer,
   and the difference between the halves is the tracing overhead.
   --tiny shrinks every input so a run takes about a second (the
   self-check uses it).

   The last line of stdout is the result object; the lines before it
   are a readable report: the environment, the workload's named
   metrics, and its answer checks. Inputs depend only on --seed. *)

module Session = Core.Session
module Compiler = Core.Compiler
module Runtime = Core.Runtime
module Incremental = Core.Incremental
module Update = Core.Update
module Engine = Rdbms.Engine
module Stats = Rdbms.Stats
module V = Rdbms.Value
module Graphgen = Workload.Graphgen
module Rulegen = Workload.Rulegen
module Queries = Workload.Queries
module Rng = Dkb_util.Rng
module Phases = Dkb_util.Timer.Phases
module Pct = Dkb_util.Percentile

let now_ms () = Unix.gettimeofday () *. 1000.
let fail fmt = Printf.ksprintf failwith fmt
let ok what = function Ok x -> x | Error e -> fail "%s: %s" what e
let per a b = if b > 0. then a /. b else 0.

(* ------------------------------------------------------------------ *)
(* Command line *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref false
let tiny = ref false
let dkbd = ref "_build/default/bin/dkbd.exe"
let out_dir = ref "perfbench/out"
let rev = ref "unknown"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "lfp_goals | kb_churn | view_maintenance | wire_mixed");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Float (fun s -> seconds := s), "S  measured seconds");
      ("--trace", Arg.Symbol ([ "0"; "1" ], fun v -> trace := v = "1"), " per-layer traced run");
      ("--tiny", Arg.Set tiny, " tiny inputs (self-check)");
      ("--dkbd", Arg.Set_string dkbd, "PATH  server binary for wire_mixed");
      ("--out", Arg.Set_string out_dir, "DIR  scratch directory (WAL files, span dump)");
      ("--rev", Arg.Set_string rev, "REV  source revision recorded in the report");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1"

(* ------------------------------------------------------------------ *)
(* Workload sizes *)

type sizes = {
  setups : int;  (** set-ups per run; setup_s is their median *)
  warmup_ms : float;
  lfp_depth : int;
  lfp_levels : int list;  (** goal levels, cycled; the last is the "small goal" *)
  clusters : int;
  rules_per_cluster : int;
  b0_facts : int;
  vm_depth : int;
  dag_layers : int;
  dag_width : int;
  acct_rows : int;
  wire_depth : int;
  wire_level : int;  (** level of connection B's QUERY node *)
  b_period_ms : float;
  rule_update_ms : float;  (** kb_churn: one rule update is due per period *)
  rss_ops : int * int * int;  (** lfp, kb, vm: operations after which peak memory is read *)
}

let full =
  {
    setups = 9;
    warmup_ms = 400.;
    lfp_depth = 13;
    lfp_levels = [ 3; 6; 9 ];
    clusters = 100;
    rules_per_cluster = 8;
    b0_facts = 8;
    vm_depth = 10;
    dag_layers = 12;
    dag_width = 10;
    acct_rows = 2000;
    wire_depth = 10;
    wire_level = 3;
    b_period_ms = 100.;
    rule_update_ms = 100.;
    rss_ops = (1_000, 15_000, 5_000);
  }

let small =
  {
    setups = 1;
    warmup_ms = 20.;
    lfp_depth = 6;
    lfp_levels = [ 2; 3; 4 ];
    clusters = 10;
    rules_per_cluster = 3;
    b0_facts = 4;
    vm_depth = 5;
    dag_layers = 4;
    dag_width = 3;
    acct_rows = 50;
    wire_depth = 5;
    wire_level = 2;
    b_period_ms = 20.;
    rule_update_ms = 10.;
    rss_ops = (10, 100, 50);
  }

let sz () = if !tiny then small else full

(* ------------------------------------------------------------------ *)
(* Spans: one per public call into a layer, kept in memory and written
   out at the end. Engine statements are entered from inside Compiler,
   Runtime, Update and Incremental; their spans come from the engine's
   public trace hook and nest under whichever span is open. *)

module Tracer = struct
  type span = {
    id : int;
    name : string;
    parent : int;
    op : int;
    t0 : float;
    mutable t1 : float;
    mutable child : float;  (** time covered by child spans *)
  }

  let on = ref false
  let stack : span list ref = ref []
  let kept : span list ref = ref []
  let n_spans = ref 0
  let max_kept = 200_000
  let op_id = ref 0
  let next_id = ref 0

  let fresh_id () =
    incr next_id;
    !next_id
  let self_ms : (string, float) Hashtbl.t = Hashtbl.create 16
  let incl_ms : (string, float) Hashtbl.t = Hashtbl.create 16
  let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)
  let next_op () = incr op_id

  let keep s =
    incr n_spans;
    if !n_spans <= max_kept then kept := s :: !kept

  let open_ name =
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s = { id = fresh_id (); name; parent; op = !op_id; t0 = now_ms (); t1 = 0.; child = 0. } in
    stack := s :: !stack;
    s

  let close s =
    s.t1 <- now_ms ();
    let dur = s.t1 -. s.t0 in
    stack := List.filter (fun x -> x != s) !stack;
    (match !stack with p :: _ -> p.child <- p.child +. dur | [] -> ());
    bump self_ms s.name (dur -. s.child);
    bump incl_ms s.name dur;
    keep s

  let span name f =
    if not !on then f ()
    else
      let s = open_ name in
      Fun.protect ~finally:(fun () -> close s) f

  (* a span whose interval was measured elsewhere (a wire round trip:
     several are outstanding at once, so they do not nest) *)
  let interval name ~t0 ~t1 =
    if !on then begin
      let s = { id = fresh_id (); name; parent = -1; op = !op_id; t0; t1; child = 0. } in
      bump self_ms name (t1 -. t0);
      bump incl_ms name (t1 -. t0);
      keep s
    end

  let engine_statements = ref 0

  let engine_hook = function
    | Engine.Tr_stmt_begin _ -> ignore (open_ "Rdbms.Engine")
    | Engine.Tr_stmt_end _ -> (
        incr engine_statements;
        match !stack with s :: _ when s.name = "Rdbms.Engine" -> close s | _ -> ())
    | Engine.Tr_plan _ -> ()

  let write path =
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun s ->
            Printf.fprintf oc
              "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"op\":%d,\"start_ms\":%.4f,\"end_ms\":%.4f,\"self_ms\":%.4f}\n"
              s.id s.name s.parent s.op s.t0 s.t1 (s.t1 -. s.t0 -. s.child))
          (List.rev !kept))
end

(* Per-layer accumulators of the traced half, by metric-ish key. *)
module Acc = struct
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 32
  let add k v = if !Tracer.on then Tracer.bump tbl k v
  let get k = Tracer.get tbl k
end

(* ------------------------------------------------------------------ *)
(* Samples and the per-phase (untraced / traced) recorder *)

type phase = {
  start : float;
  lat : (string, (float * float) list) Hashtbl.t;
      (** (completion time, latency ms) samples per operation kind *)
  mutable attempted : int;
  mutable failed : int;
}

let new_phase () = { start = now_ms (); lat = Hashtbl.create 8; attempted = 0; failed = 0 }
let timed ph kind = Option.value ~default:[] (Hashtbl.find_opt ph.lat kind)
let sample ph kind ms = Hashtbl.replace ph.lat kind ((now_ms (), ms) :: timed ph kind)
let samples ph kind = List.map snd (timed ph kind)

let failures : string list ref = ref []

(* one attempted operation; a wrong answer or an error counts as failed *)
let outcome ph what good =
  ph.attempted <- ph.attempted + 1;
  if not good then begin
    ph.failed <- ph.failed + 1;
    if List.length !failures < 10 then failures := what :: !failures
  end

let time f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* ------------------------------------------------------------------ *)
(* Host speed. The host this benchmark was written on changes speed by up
   to 2x for tens of seconds to minutes at a time (other tenants share
   its cores and memory), and every timing of the testbed moves with it:
   two copies of one workload started together on its two cores slowed
   down together. So an untraced run also times a fixed kernel of plain
   OCaml work (lookups in a prebuilt hash table; no testbed code, no
   allocation, nothing the garbage collector sees) every [period_ms],
   between operations. Within 28-second runs, the kernel's median time per
   2-second block followed the workloads' median latencies (correlation
   0.58-0.91 in process, about 0.5 on wire_mixed). The end-to-end timings are
   reported at a reference host speed: each latency is divided by its
   block's speed factor, the kernel's median time in that block over
   [reference_ms]. A change in the testbed's own speed moves the figures
   in full; a change in the host's speed moves the kernel too and cancels.
   Traced runs do not run the kernel, so it adds nothing to their spans
   and counters. *)
module Calib = struct
  (* the kernel's time at the reference speed *)
  let reference_ms = 2.0
  let period_ms = 100.

  (* wire_mixed runs the kernel only with this much idle time ahead *)
  let idle_ms = 10.
  let next = ref neg_infinity
  let enabled () = not !trace

  (* an open-addressing int set of 2^17 slots (1 MB) outside the OCaml
     heap, so the garbage collector neither scans it nor sizes the heap by
     it; 60 001 keys, linear probing, -1 marks an empty slot *)
  let slots = 1 lsl 17
  let slot k = Hashtbl.hash k land (slots - 1)

  let table =
    lazy
      (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout slots in
       Bigarray.Array1.fill a (-1);
       for i = 0 to 60_000 do
         let k = i * 7919 mod 1_000_003 in
         let j = ref (slot k) in
         while a.{!j} <> -1 && a.{!j} <> k do
           j := (!j + 1) land (slots - 1)
         done;
         a.{!j} <- k
       done;
       a)

  (* 40 001 lookups, about 6% of them hits *)
  let kernel () =
    let a : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t = Lazy.force table in
    let t0 = now_ms () in
    let hits = ref 0 in
    for i = 0 to 40_000 do
      let k = i * 13 in
      let j = ref (slot k) in
      while a.{!j} <> -1 && a.{!j} <> k do
        j := (!j + 1) land (slots - 1)
      done;
      if a.{!j} = k then incr hits
    done;
    ignore (Sys.opaque_identity !hits);
    now_ms () -. t0

  (* a kernel run recorded in [ph] when one is due *)
  let maybe ph =
    if enabled () && now_ms () >= !next then begin
      sample ph "calib" (kernel ());
      next := now_ms () +. period_ms
    end
end

let run_for ph ms op =
  let t_end = now_ms () +. ms in
  let i = ref 0 in
  while now_ms () < t_end do
    Calib.maybe ph;
    Tracer.next_op ();
    op ph !i;
    incr i
  done

let pct p xs = Pct.percentile p xs
let beyond p xs = List.length xs - int_of_float (Float.ceil (p /. 100. *. float (List.length xs)))

(* ------------------------------------------------------------------ *)
(* Process facts *)

let proc_field path key =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | k :: v :: _ when k = key -> (
              match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim v)) with
              | n :: _ -> float_of_string_opt n
              | [] -> None)
          | _ -> None)
        (String.split_on_char '\n' text)

(* peak resident set of a process, MB *)
let peak_rss_mb pid =
  match proc_field (Printf.sprintf "/proc/%s/status" pid) "VmHWM" with
  | Some kb -> kb /. 1024.
  | None -> fail "cannot read VmHWM of process %s" pid

(* restart a process's peak resident set from its current one, so the
   peak read at the end covers the measured run, not the set-ups *)
let reset_peak_rss pid =
  try Out_channel.with_open_text (Printf.sprintf "/proc/%s/clear_refs" pid) (fun oc -> output_string oc "5")
  with Sys_error e -> fail "cannot reset the peak RSS of process %s: %s" pid e

(* An in-process workload's peak memory is read once the untraced phase
   has attempted a fixed number of operations, not at the end: the process grows with the
   operations done, and its heap grows in steps, so a peak read at the
   end of a timed run would jump by a heap step with the run's speed.
   Runs too short to get there read it at the end. *)
let rss_at : float option ref = ref None

let note_rss ph ~after pid = if !rss_at = None && ph.attempted >= after then rss_at := Some (peak_rss_mb pid)
let rss_of pid = match !rss_at with Some mb -> mb | None -> peak_rss_mb pid

(* user + system CPU of a process, ms (clock ticks of 10 ms) *)
let cpu_ms pid =
  let text = In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  (* fields after the parenthesised command name; utime and stime are
     fields 14 and 15 of the whole line *)
  let rest = String.sub text (String.rindex text ')' + 2) (String.length text - String.rindex text ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) *. 10.

let new_session () =
  let s = Session.create () in
  Engine.set_sanitize (Session.engine s) false;
  s

let stats_of s = Stats.copy (Engine.stats (Session.engine s))

(* ------------------------------------------------------------------ *)
(* Shared per-layer metrics *)

(* Engine counters of the traced half, per operation. *)
let engine_metrics (d : Stats.t) ops =
  let f = float in
  let hits = f d.plan_cache_hits and misses = f d.plan_cache_misses in
  [
    ("engine.statements_per_op", per (f d.statements) ops);
    ("engine.plan_cache_hit_ratio", per hits (hits +. misses));
    ("engine.rows_read_per_op", per (f d.rows_read) ops);
    ("engine.index_probes_per_op", per (f d.index_probes) ops);
    ("engine.sim_io_per_op", per (f (Stats.total_io d)) ops);
    ("engine.tables_created_per_op", per (f d.tables_created) ops);
  ]

let span_metrics ops =
  let self l = per (Tracer.get Tracer.self_ms l) ops in
  [
    ("engine.ms_per_statement", per (Tracer.get Tracer.incl_ms "Rdbms.Engine") (float !Tracer.engine_statements));
    ("self.session_ms_per_op", self "Core.Session");
    ("self.compiler_ms_per_op", self "Core.Compiler");
    ("self.runtime_ms_per_op", self "Core.Runtime");
    ("self.engine_ms_per_op", self "Rdbms.Engine");
    ("self.update_ms_per_op", self "Core.Update");
    ("self.incremental_ms_per_op", self "Core.Incremental");
    ("self.server_ms_per_op", self "Dkb_server");
  ]

(* ------------------------------------------------------------------ *)
(* Goals: the two public calls Session.query_goal makes, Compiler.compile
   then Runtime.execute, under the session's engine bracket as query_goal
   runs them (goal_options keeps the engine's default join order and
   backend, which query_goal would set). Traced or not, a goal runs this
   one path; spans and accumulators are no-ops while tracing is off. *)

let goal_options = { Session.default_options with optimize = Compiler.Opt_auto }

let run_goal s goal =
  Tracer.span "Core.Session" @@ fun () ->
  Engine.with_session (Session.engine s) ~sid:(Session.session_id s) ~charge:(Session.db_stats s)
  @@ fun () ->
  match
    Tracer.span "Core.Compiler" (fun () ->
        Compiler.compile ~stored:(Session.stored s) ~workspace:(Session.workspace s)
          ~optimize:goal_options.optimize ~goal ())
  with
  | exception e -> Error (Printexc.to_string e)
  | Error e -> Error e
  | Ok c -> (
      Acc.add "goals" 1.;
      List.iter
        (fun ph -> Acc.add ("compiler." ^ ph ^ "_ms") (Phases.get c.Compiler.phases ph))
        [ "extract"; "readdict"; "semantic"; "codegen" ];
      let minor0, _, major0 = Gc.counters () in
      match
        Tracer.span "Core.Runtime" (fun () ->
            Runtime.execute (Session.engine s) ~strategy:goal_options.strategy
              ~index_derived:goal_options.index_derived
              ~max_iterations:goal_options.max_iterations c.Compiler.program)
      with
      | exception e -> Error (Printexc.to_string e)
      | run ->
          let minor1, _, major1 = Gc.counters () in
          let n = List.length run.Runtime.rows in
          Acc.add "runtime.minor_words" (minor1 -. minor0);
          Acc.add "runtime.major_words" (major1 -. major0);
          Acc.add "answers" (float n);
          Acc.add "runtime.iterations" (float (List.fold_left (fun a (_, k) -> a + k) 0 run.Runtime.iterations));
          List.iter
            (fun ph -> Acc.add ("runtime." ^ ph ^ "_ms") (Phases.get run.Runtime.phases ph))
            [ "create_drop"; "eval"; "termination"; "copy" ];
          Ok n)

let goal_layer_metrics () =
  let goals = Acc.get "goals" in
  let incl l = Tracer.get Tracer.incl_ms l in
  let goal_ms = Acc.get "goal_ms" in
  [
    ("compiler.ms_per_goal", per (incl "Core.Compiler") goals);
    ("runtime.ms_per_goal", per (incl "Core.Runtime") goals);
    ("runtime.iterations_per_goal", per (Acc.get "runtime.iterations") goals);
    ("runtime.minor_words_per_answer", per (Acc.get "runtime.minor_words") (Acc.get "answers"));
    ("runtime.major_words_per_answer", per (Acc.get "runtime.major_words") (Acc.get "answers"));
    ("share.compiler_of_goal", per (incl "Core.Compiler") goal_ms);
    ("share.runtime_of_goal", per (incl "Core.Runtime") goal_ms);
  ]
  @ List.map
      (fun k -> (k, per (Acc.get k) goals))
      [
        "compiler.extract_ms"; "compiler.readdict_ms"; "compiler.semantic_ms"; "compiler.codegen_ms";
        "runtime.create_drop_ms"; "runtime.eval_ms"; "runtime.termination_ms"; "runtime.copy_ms";
      ]

(* ------------------------------------------------------------------ *)
(* What a workload hands back *)

type report = {
  setup_s : float;
  untraced : phase;  (** the whole run, or the first half of a traced run *)
  traced : phase option;
  main : string;  (** latency kind of the workload's main operation *)
  tail_p : float;  (** the tail percentile reported for it *)
  side : string;  (** latency kind of its secondary operation *)
  layer : (string * float) list;  (** per-layer metrics (traced run only) *)
  checks : (string * bool) list;  (** end-of-run answer checks *)
  rss_mb : float;
  sizes_desc : (string * int) list;
}

(* setup_s unscaled, for the report *)
let setup_raw_s = ref 0.

(* Runs [setups] set-ups and returns the median set-up time, each scaled
   by the host's speed factor from three kernel runs just before it (see
   [Calib]), with the last set-up's state. *)
let median_setup setups f =
  let times = ref [] and raw = ref [] and last = ref None in
  for k = 1 to setups do
    (match !last with
    | Some (st, cleanup) ->
        cleanup st;
        last := None
    | None -> ());
    let speed =
      if Calib.enabled () then Pct.median (List.init 3 (fun _ -> Calib.kernel ())) /. Calib.reference_ms else 1.
    in
    let st, ms = time (fun () -> f k) in
    times := ms /. 1000. /. speed :: !times;
    raw := ms /. 1000. :: !raw;
    last := Some st;
    (* drop the garbage of earlier set-ups: every run starts its measured
       loop from a compacted heap *)
    Gc.compact ()
  done;
  reset_peak_rss "self";
  setup_raw_s := Pct.median !raw;
  match !last with Some (st, _) -> (Pct.median !times, st) | None -> assert false

(* What the traced half measured besides its spans. *)
type traced_counts = { minor_words : float; major_collections : int; engine : Stats.t }

(* Runs the measured loop: the whole time untraced, or half untraced and
   half traced. [op ph i] performs operation [i] and records into [ph];
   [s] is the session whose engine counters the traced half reads. *)
let measure s ~rss_ops ~op =
  let total = !seconds *. 1000. in
  let op1 ph i =
    op ph i;
    note_rss ph ~after:rss_ops "self"
  in
  if not !trace then begin
    let ph = new_phase () in
    run_for ph total op1;
    (ph, None)
  end
  else begin
    let ph1 = new_phase () in
    run_for ph1 (total /. 2.) op1;
    let ph2 = new_phase () in
    let engine = Session.engine s in
    Engine.set_trace_hook engine (Some Tracer.engine_hook);
    Tracer.on := true;
    let gc0 = Gc.quick_stat () and st0 = stats_of s in
    run_for ph2 (total /. 2.) op;
    let gc1 = Gc.quick_stat () and st1 = stats_of s in
    Tracer.on := false;
    Engine.set_trace_hook engine None;
    ( ph1,
      Some
        ( ph2,
          {
            minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
            major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
            engine = Stats.diff st1 st0;
          } ) )
  end

(* the layer metrics every in-process workload reports *)
let common_layer (ph, c) =
  let ops = float ph.attempted in
  span_metrics ops
  @ engine_metrics c.engine ops
  @ [ ("gc.minor_words_per_op", per c.minor_words ops); ("gc.major_collections", float c.major_collections) ]

(* ------------------------------------------------------------------ *)
(* lfp_goals — magic-sets ancestor goals over a deep parent tree *)

let lfp_goals () =
  let z = sz () in
  let tree = Graphgen.full_binary_tree ~depth:z.lfp_depth () in
  let setup_s, s =
    median_setup z.setups
      (fun _ ->
        let s = new_session () in
        ok "parent" (Queries.setup_parent s tree.Graphgen.t_edges);
        ok "rules" (Session.load_rules s Queries.ancestor_rules);
        ignore (ok "update_stored" (Session.update_stored s ~clear:true ()));
        (s, ignore))
  in
  let levels = Array.of_list z.lfp_levels in
  let small_level = levels.(Array.length levels - 1) in
  let nodes = Array.map (fun l -> Array.of_list (Graphgen.tree_nodes_at_level tree l)) levels in
  let expect = Array.map (Graphgen.subtree_edge_count tree) levels in
  let rng = Rng.create !seed in
  let op ph i =
    let k = i mod Array.length levels in
    let node = Rng.pick rng nodes.(k) in
    let r, ms = time (fun () -> run_goal s (Queries.ancestor_goal node)) in
    Acc.add "goal_ms" ms;
    sample ph "goal" ms;
    if levels.(k) = small_level then sample ph "small_goal" ms;
    outcome ph
      (Printf.sprintf "ancestor(%d, W)" node)
      (match r with Ok n -> n = expect.(k) | Error _ -> false)
  in
  (* warm-up: caches fill, lazy set-up finishes *)
  run_for (new_phase ()) z.warmup_ms op;
  let rss_ops, _, _ = z.rss_ops in
  let untraced, traced = measure s ~rss_ops ~op in
  let layer = match traced with None -> [] | Some t -> goal_layer_metrics () @ common_layer t in
  {
    setup_s;
    untraced;
    traced = Option.map fst traced;
    main = "goal";
    tail_p = 90.;
    side = "small_goal";
    layer;
    checks = [];
    rss_mb = rss_of "self";
    sizes_desc =
      [ ("tree_depth", z.lfp_depth); ("edges", List.length tree.Graphgen.t_edges); ("peak_rss_after_ops", rss_ops) ]
      @ List.mapi (fun i l -> (Printf.sprintf "level%d_answers" l, expect.(i))) z.lfp_levels;
  }

(* ------------------------------------------------------------------ *)
(* kb_churn — a large stored rule base: goals on random clusters, and a
   rule added and persisted every [rule_update_ms] *)

let kb_churn () =
  let z = sz () in
  let rb = Rulegen.chains ~clusters:z.clusters ~rules_per_cluster:z.rules_per_cluster () in
  let setup_s, s =
    median_setup z.setups (fun _ ->
        let s = new_session () in
        let base = rb.Rulegen.base_pred in
        ok base (Session.define_base s base [ ("x", Rdbms.Datatype.TInt); ("y", Rdbms.Datatype.TInt) ] ~indexes:[ "x" ] ());
        ignore
          (ok "facts" (Session.add_facts s base (List.init z.b0_facts (fun i -> [ V.Int i; V.Int (i + 1) ]))));
        List.iter (fun c -> ok "rule" (Core.Workspace.add_clause (Session.workspace s) c)) rb.Rulegen.clauses;
        ignore (ok "update_stored" (Session.update_stored s ~clear:true ()));
        (s, ignore))
  in
  let rng = Rng.create !seed in
  let added = ref 0 in
  let rule_update ph =
    let k = Rng.int rng z.clusters in
    let preds = Rulegen.cluster_preds ~clusters_prefix:"c" ~cluster:k ~count:z.rules_per_cluster in
    let target = Rng.pick rng (Array.of_list preds) in
    incr added;
    (* a fresh head over one cluster predicate: the update recomputes its
       closure, and no goal on the clusters becomes relevant to it *)
    let text = Printf.sprintf "u%d(X, Y) :- %s(X, Y)." !added target in
    let r, ms =
      time (fun () ->
          Tracer.span "Core.Session" @@ fun () ->
          match Session.add_rule s text with
          | Error e -> Error e
          | Ok () -> Tracer.span "Core.Update" (fun () -> Session.update_stored s ~clear:true ()))
    in
    sample ph "rule_update" ms;
    (match r with
    | Ok (rep : Update.report) ->
        Acc.add "updates" 1.;
        Acc.add "update.extract_ms" (Phases.get rep.Update.phases "extract");
        Acc.add "update.compiled_ms" (Phases.get rep.Update.phases "compiled");
        Acc.add "update.tc_edges" (float rep.Update.tc_edges)
    | Error _ -> ());
    outcome ph text (Result.is_ok r)
  in
  let goal ph =
    let k = Rng.int rng z.clusters in
    let r, ms = time (fun () -> run_goal s (Rulegen.cluster_query rb k)) in
    Acc.add "goal_ms" ms;
    sample ph "goal" ms;
    outcome ph (Printf.sprintf "c%dl1(X, Y)" k) (match r with Ok n -> n = z.b0_facts | Error _ -> false)
  in
  (* Rule updates are due on a clock, not every tenth op: the stored
     rule base then grows by the same number of rules in every run, so a
     faster build does not end the run over a larger rule base. *)
  let next_update = ref (now_ms ()) in
  let op ph _ =
    if now_ms () >= !next_update then begin
      next_update := !next_update +. z.rule_update_ms;
      rule_update ph
    end
    else goal ph
  in
  run_for (new_phase ()) z.warmup_ms op;
  let _, rss_ops, _ = z.rss_ops in
  let untraced, traced = measure s ~rss_ops ~op in
  let layer =
    match traced with
    | None -> []
    | Some t ->
        let updates = Acc.get "updates" in
        goal_layer_metrics () @ common_layer t
        @ [
            ("update.ms_per_update", per (Tracer.get Tracer.incl_ms "Core.Update") updates);
            ("update.extract_ms", per (Acc.get "update.extract_ms") updates);
            ("update.compiled_ms", per (Acc.get "update.compiled_ms") updates);
            ("update.tc_edges_per_update", per (Acc.get "update.tc_edges") updates);
          ]
  in
  {
    setup_s;
    untraced;
    traced = Option.map fst traced;
    main = "goal";
    tail_p = 90.;
    side = "rule_update";
    layer;
    checks = [];
    rss_mb = rss_of "self";
    sizes_desc =
      [
        ("clusters", z.clusters); ("rules_per_cluster", z.rules_per_cluster);
        ("stored_rules_at_start", rb.Rulegen.total_rules); ("b0_facts", z.b0_facts);
        ("rules_added", !added); ("peak_rss_after_ops", rss_ops);
      ];
  }

(* ------------------------------------------------------------------ *)
(* view_maintenance — edge updates under DRed- and counting-maintained
   views, with a WAL attached *)

let vm_rules = "anc(X, Y) :- edge(X, Y).\nanc(X, Y) :- edge(X, Z), anc(Z, Y).\nhop2(X, Y) :- edge(X, Z), edge(Z, Y).\n"

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let scratch name =
  let dir = Filename.concat !out_dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  dir

let sorted_rows rows = List.sort compare (List.map Array.to_list rows)

let view_maintenance () =
  let z = sz () in
  let tree = Graphgen.full_binary_tree ~depth:z.vm_depth () in
  (* The graph is the same for every seed: DRed's cost depends on its
     shape, and the seed's job is to vary the update sequence, not to
     measure a different DAG in every run. *)
  let dag =
    Graphgen.dag ~rng:(Rng.create 1) ~path_length:z.dag_layers ~width:z.dag_width ~fan_out:2
      ~first_node:100_000 ()
  in
  let edges = Array.of_list (tree.Graphgen.t_edges @ dag.Graphgen.d_edges) in
  let row (a, b) = [ V.Int a; V.Int b ] in
  let setup_s, (s, dir) =
    median_setup z.setups
      (fun k ->
        let dir = scratch (Printf.sprintf "vm%d" k) in
        let s = new_session () in
        ok "wal" (Session.attach_wal s (Filename.concat dir "dkb.wal"));
        ok "edge" (Queries.setup_edge s (Array.to_list edges));
        ok "rules" (Session.load_rules s vm_rules);
        ignore (ok "update_stored" (Session.update_stored s ~clear:true ()));
        Session.set_maintenance s Incremental.Auto;
        ignore (ok "anc" (Session.materialize s "anc"));
        ignore (ok "hop2" (Session.materialize s "hop2"));
        ((s, dir), fun (_, d) -> rm_rf d))
  in
  let view_size v = List.length (ok v (Session.view_rows s v)) in
  let sizes = [ ("anc", view_size "anc"); ("hop2", view_size "hop2") ] in
  let rng = Rng.create !seed in
  let fact_update ph what f =
    let r, ms =
      time (fun () -> Tracer.span "Core.Session" @@ fun () -> Tracer.span "Core.Incremental" f)
    in
    sample ph "fact_update" ms;
    match r with
    | Ok (rep : Incremental.apply_report) ->
        Acc.add "fact_updates" 1.;
        Acc.add "facts" (float (rep.base_inserted + rep.base_deleted));
        Acc.add "incremental.ms" ms;
        Acc.add "rederived" (float rep.rederived);
        List.iter (fun (p, _, del) -> if p = "anc" then Acc.add "anc_deleted" (float del)) rep.derived_changes;
        if rep.fallback then Acc.add "fallbacks" 1.;
        outcome ph what (rep.base_inserted + rep.base_deleted = 1)
    | Error e -> outcome ph (what ^ ": " ^ e) false
  in
  let op ph _ =
    if Rng.int rng 4 < 3 then begin
      let e = edges.(Rng.int rng (Array.length edges)) in
      fact_update ph "delete" (fun () -> Session.delete_facts s "edge" [ row e ]);
      fact_update ph "insert" (fun () -> Session.insert_facts s "edge" [ row e ])
    end
    else begin
      let v, n = if Rng.bool rng then List.nth sizes 0 else List.nth sizes 1 in
      let r, ms =
        time (fun () -> Tracer.span "Core.Session" @@ fun () -> Tracer.span "Core.Incremental" (fun () -> Session.view_rows s v))
      in
      (* the two views differ tenfold in size: only anc reads feed the
         reported p50, which would otherwise flip between the groups *)
      sample ph (if v = "anc" then "view_read" else "view_read_hop2") ms;
      outcome ph ("read " ^ v) (match r with Ok rows -> List.length rows = n | Error _ -> false)
    end
  in
  run_for (new_phase ()) z.warmup_ms op;
  let _, _, rss_ops = z.rss_ops in
  let untraced, traced = measure s ~rss_ops ~op in
  (* before the checks: recovering from the WAL replays every update of
     the run *)
  let rss_mb = rss_of "self" in
  let checks =
    List.map
      (fun (v, _) ->
        let fresh = ok v (Session.query s (v ^ "(X, Y)")) in
        ( v ^ " view = from-scratch query",
          sorted_rows (snd (Session.answer_rows fresh)) = sorted_rows (ok v (Session.view_rows s v)) ))
      sizes
    @ [
        ( "recover from WAL reproduces edge count",
          match
            Session.recover ~db:(Filename.concat dir "absent.db") ~wal:(Filename.concat dir "dkb.wal") ()
          with
          | Ok (s2, _) -> Session.base_count s2 "edge" = Array.length edges
          | Error _ -> false );
      ]
  in
  rm_rf dir;
  let layer =
    match traced with
    | None -> []
    | Some ((_, c) as t) ->
        let updates = Acc.get "fact_updates" in
        let rederived = Acc.get "rederived" in
        let d = c.engine in
        common_layer t
        @ [
            ("incremental.ms_per_update", per (Acc.get "incremental.ms") updates);
            ("incremental.rederived_per_update", per rederived updates);
            ("incremental.overdelete_waste_ratio", per rederived (rederived +. Acc.get "anc_deleted"));
            ("incremental.fallbacks", Acc.get "fallbacks");
            ("wal.records_per_update", per (float d.wal_records) updates);
            ("wal.bytes_per_fact", per (float d.wal_bytes) (Acc.get "facts"));
          ]
  in
  {
    setup_s;
    untraced;
    traced = Option.map fst traced;
    main = "fact_update";
    tail_p = 90.;
    side = "view_read";
    layer;
    checks;
    rss_mb;
    sizes_desc =
      [
        ("tree_depth", z.vm_depth); ("dag_layers", z.dag_layers); ("dag_width", z.dag_width);
        ("edges", Array.length edges); ("anc_rows", List.assoc "anc" sizes); ("hop2_rows", List.assoc "hop2" sizes);
        ("peak_rss_after_ops", rss_ops);
      ];
  }

(* ------------------------------------------------------------------ *)
(* wire_mixed — dkbd in its own process, two connections driven by one
   select loop: A closed-loop point reads / inserts / snapshot counts,
   B open-loop Datalog QUERYs at a fixed rate *)

module Wire = struct
  type conn = {
    fd : Unix.file_descr;
    buf : Bytes.t;
    line : Buffer.t;
    mutable cur : string list;  (** lines of the response being read, newest first *)
    ready : string list Queue.t;  (** complete responses, oldest first *)
  }

  let connect port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    { fd; buf = Bytes.create 65536; line = Buffer.create 256; cur = []; ready = Queue.create () }

  let send c text =
    let b = Bytes.of_string (text ^ "\n") in
    let rec go off = if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off)) in
    go 0

  (* read what is available; a response ends at a line holding "." *)
  let feed c =
    let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
    if n = 0 then fail "dkbd closed the connection";
    for i = 0 to n - 1 do
      match Bytes.get c.buf i with
      | '\n' ->
          let l = Buffer.contents c.line in
          Buffer.clear c.line;
          if l = "." then begin
            Queue.push (List.rev c.cur) c.ready;
            c.cur <- []
          end
          else c.cur <- l :: c.cur
      | ch -> Buffer.add_char c.line ch
    done

  let request c text =
    send c text;
    while Queue.is_empty c.ready do
      feed c
    done;
    Queue.pop c.ready

  let status = function s :: _ -> s | [] -> ""
  let is_ok r = String.length (status r) >= 2 && String.sub (status r) 0 2 = "OK"

  let field r key =
    List.find_map
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i when String.sub kv 0 i = key -> int_of_string_opt (String.sub kv (i + 1) (String.length kv - i - 1))
        | _ -> None)
      (String.split_on_char ' ' (status r))

  (* the single value of a one-row, one-column answer *)
  let scalar r = match r with [ _; _; v ] -> int_of_string_opt v | _ -> None

  let must c text =
    let r = request c text in
    if not (is_ok r) then fail "%s -> %s" text (status r);
    r

  (* counters of the connection's server session (the STATS body) *)
  let stats c =
    let r = must c "STATS" in
    let body = match r with [ _; b ] -> b | _ -> "" in
    fun key ->
      List.find_map
        (fun kv ->
          match String.split_on_char '=' kv with
          | [ k; v ] when k = key -> float_of_string_opt v
          | _ -> None)
        (String.split_on_char ' ' body)
      |> Option.value ~default:0.
end

type server = { pid : int; port : int; out : in_channel; wal : string }

let children : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let start_server dir k =
  let wal = Filename.concat dir (Printf.sprintf "dkbd%d.wal" k) in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process !dkbd [| !dkbd; "--port"; "0"; "--wal"; wal |] devnull out_w Unix.stderr in
  Unix.close out_w;
  Unix.close devnull;
  children := pid :: !children;
  let out = Unix.in_channel_of_descr out_r in
  let line = try input_line out with End_of_file -> fail "dkbd exited before listening" in
  match Scanf.sscanf_opt line "dkbd listening on %d" Fun.id with
  | Some port -> { pid; port; out; wal }
  | None -> fail "unexpected dkbd banner: %s" line

let stop_server srv =
  (try
     let c = Wire.connect srv.port in
     ignore (Wire.request c "SHUTDOWN");
     Unix.close c.Wire.fd
   with Unix.Unix_error _ | Failure _ -> Unix.kill srv.pid Sys.sigkill);
  ignore (Unix.waitpid [] srv.pid);
  children := List.filter (( <> ) srv.pid) !children;
  close_in_noerr srv.out

let bal id = id * 7919 mod 100_003

let load_server srv z tree =
  let c = Wire.connect srv.port in
  ignore (Wire.must c "BASE parent par:int child:int");
  let values rows = String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "(%d, %d)" a b) rows) in
  ignore (Wire.must c ("SQL INSERT INTO parent VALUES " ^ values tree.Graphgen.t_edges));
  ignore (Wire.must c "SQL CREATE INDEX idx_parent_par ON parent (par)");
  ignore (Wire.must c "SQL CREATE TABLE acct (id integer, bal integer)");
  ignore (Wire.must c ("SQL INSERT INTO acct VALUES " ^ values (List.init z.acct_rows (fun i -> (i, bal i)))));
  ignore (Wire.must c "SQL CREATE INDEX idx_acct_id ON acct (id)");
  ignore (Wire.must c "QUIT");
  Unix.close c.Wire.fd

type pending = {
  verb : string;
  due : float;  (** when it was due to be sent (B: the schedule; A: the send) *)
  sent : float;
  overlap : bool;  (** A: sent while a B QUERY was outstanding *)
  check : string list -> bool;
  rec_ : bool;  (** sent inside the measured window *)
}

let wire_mixed () =
  let z = sz () in
  let tree = Graphgen.full_binary_tree ~depth:z.wire_depth () in
  let dir = scratch "wire" in
  let setup_s, (srv, a, b) =
    median_setup z.setups
      (fun k ->
        let srv = start_server dir k in
        load_server srv z tree;
        let b = Wire.connect srv.port in
        ignore (Wire.must b "RULE anc(X, Y) :- parent(X, Y).");
        ignore (Wire.must b "RULE anc(X, Y) :- parent(X, Z), anc(Z, Y).");
        let a = Wire.connect srv.port in
        ignore (Wire.must a "PREPARE pt SELECT bal FROM acct WHERE id = ?1");
        ((srv, a, b), fun (srv, a, b) -> Unix.close a.Wire.fd; Unix.close b.Wire.fd; stop_server srv))
  in
  reset_peak_rss (string_of_int srv.pid);
  let b_nodes = Array.of_list (Graphgen.tree_nodes_at_level tree z.wire_level) in
  let b_expect = Graphgen.subtree_edge_count tree z.wire_level in
  let rng_a = Rng.create !seed and rng_b = Rng.create (!seed + 1) in
  let rows = ref z.acct_rows in
  let next_id = ref z.acct_rows and oldest = ref z.acct_rows in
  let write_window = 100 in
  (* A's snapshot op: BEGIN SNAPSHOT, then (when B is idle) one acct
     write on B that lands while the snapshot is open, then the self-join
     COUNT, which must still see the pinned count, then COMMIT. [snap]
     holds the pinned count; step 1 means BEGIN has been answered. *)
  let snap = ref None and snap_step = ref 0 in
  let a_next () =
    match !snap_step with
    | 2 ->
        snap_step := 3;
        let pinned = Option.get !snap in
        ( "snapshot", "SQL SELECT COUNT(*) FROM acct a1, acct a2 WHERE a1.id = a2.id",
          fun r -> Wire.scalar r = Some pinned )
    | 3 ->
        snap_step := 0;
        ("snapshot", "COMMIT", Wire.is_ok)
    | _ -> (
        match Rng.int rng_a 10 with
        | 0 when !rows < z.acct_rows + write_window ->
            let id = !next_id in
            incr next_id;
            incr rows;
            ("insert", Printf.sprintf "SQL INSERT INTO acct VALUES (%d, %d)" id (bal id), fun r -> Wire.field r "affected" = Some 1)
        | 0 ->
            (* a full window: retire the oldest added row, so acct (and the
               snapshot self-join) stays the same size however fast the run *)
            let id = !oldest in
            incr oldest;
            decr rows;
            ("delete", Printf.sprintf "SQL DELETE FROM acct WHERE id = %d" id, fun r -> Wire.field r "affected" = Some 1)
        | 1 ->
            snap := Some !rows;
            snap_step := 1;
            ("snapshot", "BEGIN SNAPSHOT", fun r -> Wire.field r "ts" <> None)
        | _ ->
            let id = Rng.int rng_a z.acct_rows in
            ("exec", Printf.sprintf "EXEC pt %d" id, fun r -> Wire.scalar r = Some (bal id)))
  in
  let b_query () =
    let n = Rng.pick rng_b b_nodes in
    (Printf.sprintf "QUERY anc(%d, W)" n, fun r -> Wire.field r "rows" = Some b_expect)
  in
  (* B's writes inside A's snapshots alternate inserting a row of its own
     and deleting it again *)
  let b_row = ref None and b_next_id = ref 1_000_000 in
  let b_write () =
    let affected r = Wire.field r "affected" = Some 1 in
    match !b_row with
    | None ->
        let id = !b_next_id in
        incr b_next_id;
        b_row := Some id;
        incr rows;
        (Printf.sprintf "SQL INSERT INTO acct VALUES (%d, %d)" id (bal id), affected)
    | Some id ->
        b_row := None;
        decr rows;
        (Printf.sprintf "SQL DELETE FROM acct WHERE id = %d" id, affected)
  in
  let snapshots = ref 0 and snapshots_written = ref 0 in
  (* warm-up outside the loop: one derivation, a burst of point reads *)
  ignore (Wire.must b (fst (b_query ())));
  for i = 0 to 50 do
    ignore (Wire.must a (Printf.sprintf "EXEC pt %d" (i mod z.acct_rows)))
  done;
  let sa0 = Wire.stats a and sb0 = Wire.stats b in
  let qa : pending Queue.t = Queue.create () and qb : pending Queue.t = Queue.create () in
  let total = !seconds *. 1000. in
  let t_start = now_ms () in
  let t_half = if !trace then t_start +. (total /. 2.) else infinity in
  let t_end = t_start +. total in
  let ph1 = new_phase () in
  let ph2 = new_phase () in
  let lateness = ref [] in
  let cpu_half = ref 0. in
  let phase_of t = if t >= t_half then ph2 else ph1 in
  let query_outstanding () = Queue.fold (fun acc p -> acc || p.verb = "query") false qb in
  let send_a_req () =
    let verb, text, check = a_next () in
    let t = now_ms () in
    Tracer.next_op ();
    Wire.send a text;
    Queue.push { verb; due = t; sent = t; overlap = query_outstanding (); check; rec_ = t < t_end } qa
  in
  (* after BEGIN SNAPSHOT: with B idle, A waits while B's write lands
     (the write's completion sends A's COUNT); with B busy deriving, the
     snapshot goes on without a write rather than stall A behind B *)
  let send_a () =
    if !snap_step <> 1 then send_a_req ()
    else begin
      snap_step := 2;
      incr snapshots;
      if not (Queue.is_empty qb) then send_a_req ()
      else begin
        incr snapshots_written;
        let text, check = b_write () in
        let t = now_ms () in
        Wire.send b text;
        Queue.push { verb = "snapshot_write"; due = t; sent = t; overlap = false; check; rec_ = true } qb
      end
    end
  in
  let next_due = ref t_start in
  let send_b due =
    let text, check = b_query () in
    let t = now_ms () in
    Wire.send b text;
    if t >= t_half then lateness := (t -. due) :: !lateness;
    Queue.push { verb = "query"; due; sent = t; overlap = false; check; rec_ = true } qb
  in
  let complete ~is_a p r =
    let t = now_ms () in
    let ph = phase_of p.sent in
    if ph == ph2 then Tracer.interval "Dkb_server" ~t0:p.sent ~t1:t;
    if p.rec_ then begin
      if is_a then begin
        sample ph "req" (t -. p.sent);
        sample ph ("rtt_" ^ p.verb) (t -. p.sent);
        sample ph (if p.overlap then "rtt_overlap" else "rtt_clear") (t -. p.sent);
      end
      else if p.verb = "query" then sample ph "goal" (t -. p.due);
      outcome ph (p.verb ^ " " ^ Wire.status r) (p.check r)
    end
  in
  send_a ();
  let rec loop () =
    let t = now_ms () in
    if t >= t_half && not !Tracer.on then begin
      cpu_half := cpu_ms srv.pid;
      Tracer.on := true
    end;
    while t < t_end && !next_due <= t do
      send_b !next_due;
      next_due := !next_due +. z.b_period_ms
    done;
    let busy = not (Queue.is_empty qa && Queue.is_empty qb) in
    if t < t_end || busy then begin
      if t >= t_end +. 60_000. then fail "dkbd did not answer within 60 s";
      let timeout = if t < t_end then Float.max 0. (Float.min (!next_due -. t) (t_end -. t)) /. 1000. else 0.05 in
      let readable, _, _ =
        try Unix.select [ a.Wire.fd; b.Wire.fd ] [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.mem a.Wire.fd readable then begin
        Wire.feed a;
        while not (Queue.is_empty a.Wire.ready) do
          complete ~is_a:true (Queue.pop qa) (Queue.pop a.Wire.ready);
          if now_ms () < t_end || !snap_step <> 0 then begin
            (* the kernel runs only with nothing in flight and B's next
               QUERY not due for a while, so it delays no measured request *)
            if Queue.is_empty qb && !next_due -. now_ms () > Calib.idle_ms then Calib.maybe ph1;
            send_a ()
          end
        done
      end;
      if List.mem b.Wire.fd readable then begin
        Wire.feed b;
        while not (Queue.is_empty b.Wire.ready) do
          let p = Queue.pop qb in
          complete ~is_a:false p (Queue.pop b.Wire.ready);
          if p.verb = "snapshot_write" then send_a ()
        done
      end;
      loop ()
    end
  in
  loop ();
  let cpu_end = cpu_ms srv.pid in
  Tracer.on := false;
  let sa = Wire.stats a and sb = Wire.stats b in
  (* dkbd's memory follows B's derivations, which run on a clock: a full
     run makes the same number of them however fast it is, so the peak is
     read at the end *)
  let rss = peak_rss_mb (string_of_int srv.pid) in
  (* counters charged to the two server sessions over the measured loop *)
  let delta key = sa key -. sa0 key +. (sb key -. sb0 key) in
  Unix.close a.Wire.fd;
  Unix.close b.Wire.fd;
  stop_server srv;
  rm_rf dir;
  let traced = if !trace then Some ph2 else None in
  let layer =
    match traced with
    | None -> []
    | Some ph ->
        let reqs = float (List.length (samples ph "req")) in
        let queries = float (List.length (samples ph "goal")) in
        let ops = reqs +. queries in
        let p50 k = pct 50. (samples ph k) in
        let hits = delta "cache_hits" and misses = delta "cache_misses" in
        (* every write request changes one acct row *)
        let writes =
          float
            (List.fold_left
               (fun a p -> a + List.length (samples p "rtt_insert") + List.length (samples p "rtt_delete"))
               !snapshots_written [ ph1; ph ])
        in
        [
          ("server.cpu_ms_per_req", per (cpu_end -. !cpu_half) ops);
          ("wire.exec_rtt_p50_ms", p50 "rtt_exec");
          ("wire.insert_rtt_p50_ms", p50 "rtt_insert");
          ("wire.snapshot_rtt_p50_ms", p50 "rtt_snapshot");
          ("wire.overlap_share", per (float (List.length (samples ph "rtt_overlap"))) reqs);
          ("wire.overlap_rtt_p50_ms", p50 "rtt_overlap");
          ("wire.clear_rtt_p50_ms", p50 "rtt_clear");
          ("server.versions_captured_per_snapshot", per (delta "versions_captured") (delta "snapshots"));
          ("wire.generator_lateness_ms", pct 99. !lateness);
          ("wal.records_per_update", per (delta "wal_records") writes);
          ("wal.bytes_per_fact", per (delta "wal_bytes") writes);
          ("engine.statements_per_op", per (delta "stmts") ops);
          ("engine.plan_cache_hit_ratio", per hits (hits +. misses));
          ("engine.rows_read_per_op", per (delta "rows_read") ops);
          ("engine.index_probes_per_op", per (delta "probes") ops);
          ("engine.sim_io_per_op", per (delta "reads" +. delta "writes") ops);
          ("engine.tables_created_per_op", per (delta "create") ops);
        ]
        @ span_metrics ops
  in
  {
    setup_s;
    untraced = ph1;
    traced;
    main = "req";
    tail_p = 99.;
    side = "goal";
    layer;
    checks = [ ("a write landed inside some snapshot", !snapshots_written > 0) ];
    rss_mb = rss;
    sizes_desc =
      [
        ("acct_rows_at_start", z.acct_rows); ("acct_rows_at_end", !rows); ("tree_depth", z.wire_depth);
        ("query_answers", b_expect); ("query_period_ms", int_of_float z.b_period_ms); ("connections", 2);
        ("snapshots", !snapshots); ("snapshots_with_write", !snapshots_written);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Metric catalogue: the names BENCHMARK.json declares *)

let end_to_end = [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_p50_ms", "ms"); ("op_tail_ms", "ms"); ("side_p50_ms", "ms"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("compiler.ms_per_goal", "ms"); ("compiler.extract_ms", "ms"); ("compiler.readdict_ms", "ms");
    ("compiler.semantic_ms", "ms"); ("compiler.codegen_ms", "ms");
    ("runtime.ms_per_goal", "ms"); ("runtime.iterations_per_goal", "count"); ("runtime.create_drop_ms", "ms");
    ("runtime.eval_ms", "ms"); ("runtime.termination_ms", "ms"); ("runtime.copy_ms", "ms");
    ("runtime.minor_words_per_answer", "words"); ("runtime.major_words_per_answer", "words");
    ("engine.statements_per_op", "count"); ("engine.ms_per_statement", "ms"); ("engine.plan_cache_hit_ratio", "ratio");
    ("engine.rows_read_per_op", "count"); ("engine.index_probes_per_op", "count"); ("engine.sim_io_per_op", "pages");
    ("engine.tables_created_per_op", "count");
    ("update.ms_per_update", "ms"); ("update.extract_ms", "ms"); ("update.compiled_ms", "ms");
    ("update.tc_edges_per_update", "count");
    ("incremental.ms_per_update", "ms"); ("incremental.rederived_per_update", "count");
    ("incremental.overdelete_waste_ratio", "ratio"); ("incremental.fallbacks", "count");
    ("wal.records_per_update", "count"); ("wal.bytes_per_fact", "bytes");
    ("server.cpu_ms_per_req", "ms"); ("wire.exec_rtt_p50_ms", "ms"); ("wire.insert_rtt_p50_ms", "ms");
    ("wire.snapshot_rtt_p50_ms", "ms"); ("wire.overlap_share", "ratio"); ("wire.overlap_rtt_p50_ms", "ms");
    ("wire.clear_rtt_p50_ms", "ms"); ("server.versions_captured_per_snapshot", "count");
    ("wire.generator_lateness_ms", "ms");
    ("gc.minor_words_per_op", "words"); ("gc.major_collections", "count");
    ("self.session_ms_per_op", "ms"); ("self.compiler_ms_per_op", "ms"); ("self.runtime_ms_per_op", "ms");
    ("self.engine_ms_per_op", "ms"); ("self.update_ms_per_op", "ms"); ("self.incremental_ms_per_op", "ms");
    ("self.server_ms_per_op", "ms");
    ("share.compiler_of_goal", "ratio"); ("share.runtime_of_goal", "ratio");
    ("trace.overhead_p50_ms", "ms"); ("trace.overhead_ratio", "ratio");
  ]

(* The workload's own names for its end-to-end numbers. *)
let named_metrics w (r : report) ph e2e =
  let g k = List.assoc k e2e in
  let error_rate = per (float ph.failed) (float ph.attempted) in
  let common = [ ("setup_s", "s", r.setup_s); ("error_rate", "ratio", error_rate); ("peak_rss_mb", "MB", r.rss_mb) ] in
  common
  @
  match w with
  | "lfp_goals" ->
      [ ("goals_per_s", "1/s", g "ops_per_s"); ("goal_p50_ms", "ms", g "op_p50_ms"); ("goal_p90_ms", "ms", g "op_tail_ms") ]
  | "kb_churn" ->
      [
        ("goals_per_s", "1/s", g "ops_per_s"); ("goal_p50_ms", "ms", g "op_p50_ms"); ("goal_p90_ms", "ms", g "op_tail_ms");
        ("rule_update_p50_ms", "ms", g "side_p50_ms");
      ]
  | "view_maintenance" ->
      [
        ("fact_updates_per_s", "1/s", g "ops_per_s"); ("fact_update_p50_ms", "ms", g "op_p50_ms");
        ("fact_update_p90_ms", "ms", g "op_tail_ms"); ("view_read_p50_ms", "ms", g "side_p50_ms");
      ]
  | _ ->
      [
        ("wire_reqs_per_s", "1/s", g "ops_per_s"); ("wire_req_p50_ms", "ms", g "op_p50_ms");
        ("wire_req_p99_ms", "ms", g "op_tail_ms"); ("goal_p50_ms", "ms", g "side_p50_ms");
      ]

(* End-to-end figures over the whole run. Each latency is divided by the
   host's speed factor in its 2-second block (see [Calib]), and so is the
   run's duration, block by block, less the kernel's own runs. *)
let block_ms = 2000.
let block_of ph t = int_of_float ((t -. ph.start) /. block_ms)

(* the samples of [kind] completed in each block *)
let by_block ph kind =
  let tbl = Hashtbl.create 32 in
  let get b = Option.value ~default:[] (Hashtbl.find_opt tbl b) in
  List.iter (fun (t, v) -> Hashtbl.replace tbl (block_of ph t) (v :: get (block_of ph t))) (timed ph kind);
  get

(* the speed factor of each block: its median kernel time over the
   reference (1.3 = the host ran 30% slow); a block without a kernel run
   takes the run's median, and a run without any (traced) 1 *)
let speed ph =
  match samples ph "calib" with
  | [] -> fun _ -> 1.
  | all ->
      let whole = Pct.median all /. Calib.reference_ms in
      let cal = by_block ph "calib" in
      fun b -> match cal b with [] -> whole | xs -> Pct.median xs /. Calib.reference_ms

let e2e_of ~scale (r : report) ph =
  let f = if scale then speed ph else fun _ -> 1. in
  let lat k = List.map (fun (t, v) -> v /. f (block_of ph t)) (timed ph k) in
  let main = lat r.main in
  let last = List.fold_left (fun a (t, _) -> Float.max a t) ph.start (timed ph r.main) in
  let cal = by_block ph "calib" in
  let elapsed = ref 0. in
  for b = 0 to block_of ph last do
    let len = Float.min block_ms (last -. ph.start -. (float b *. block_ms)) in
    elapsed := !elapsed +. (Float.max 0. (len -. List.fold_left ( +. ) 0. (cal b)) /. f b)
  done;
  [
    ("setup_s", if scale then r.setup_s else !setup_raw_s);
    ("ops_per_s", per (float (List.length main) *. 1000.) !elapsed);
    ("op_p50_ms", pct 50. main);
    ("op_tail_ms", pct r.tail_p main);
    ("side_p50_ms", pct 50. (lat r.side));
    ("peak_rss_mb", r.rss_mb);
  ]

let num v = if Float.is_finite v then Printf.sprintf "%.12g" v else fail "non-finite metric value"

let main () =
  let run =
    match !workload with
    | "lfp_goals" -> lfp_goals
    | "kb_churn" -> kb_churn
    | "view_maintenance" -> view_maintenance
    | "wire_mixed" -> wire_mixed
    | w -> fail "unknown workload %S (lfp_goals | kb_churn | view_maintenance | wire_mixed)" w
  in
  if !seconds <= 0. then fail "--seconds must be positive";
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  let r = run () in
  let ph = Option.value r.traced ~default:r.untraced in
  let e2e = e2e_of ~scale:true r r.untraced in
  let count k = List.length (samples ph k) in
  let kernel = samples r.untraced "calib" in
  Printf.printf "# env {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \"tiny\": %b, \"rev\": %S, \"nproc\": %d, \"ocaml\": %S, \"sizes\": {%s}, \"samples\": {\"%s\": %d, \"%s\": %d}, \"tail_percentile\": %s, \"samples_beyond_tail\": %d, \"samples_beyond_side_p50\": %d, \"kernel_runs\": %d, \"kernel_median_ms\": %s, \"reference_ms\": %s}\n"
    !workload !seed (num !seconds) !trace !tiny !rev
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) r.sizes_desc))
    r.main (count r.main) r.side (count r.side) (num r.tail_p)
    (beyond r.tail_p (samples ph r.main)) (beyond 50. (samples ph r.side))
    (List.length kernel)
    (num (if kernel = [] then 0. else Pct.median kernel))
    (num Calib.reference_ms);
  List.iter
    (fun (n, u, v) -> Printf.printf "# metric %-28s %14s %s\n" n (num v) u)
    (named_metrics !workload r r.untraced e2e);
  let line label xs = Printf.printf "# %s %s\n" label (String.concat " " (List.map (fun (n, v) -> n ^ "=" ^ num v) xs)) in
  line "unscaled" (e2e_of ~scale:false r r.untraced);
  (* every block's speed factor and unscaled p50, in run order *)
  let f = speed r.untraced and main = by_block r.untraced r.main in
  let last = List.fold_left (fun a (t, _) -> Float.max a t) r.untraced.start (timed r.untraced r.main) in
  let blocks = List.init (block_of r.untraced last + 1) Fun.id in
  Printf.printf "# blocks speed=%s op_p50_ms=%s\n"
    (String.concat "," (List.map (fun b -> num (f b)) blocks))
    (String.concat "," (List.map (fun b -> match main b with [] -> "-" | xs -> num (pct 50. xs)) blocks));
  List.iter (fun (n, good) -> Printf.printf "# check %-40s %s\n" n (if good then "ok" else "FAILED")) r.checks;
  List.iter (fun f -> Printf.printf "# failed op: %s\n" f) (List.rev !failures);
  let layer =
    match r.traced with
    | None -> []
    | Some t ->
        let p50 p = pct 50. (samples p r.main) in
        let over = p50 t -. p50 r.untraced in
        Printf.printf "# trace spans=%d kept=%d (written to %s)\n" !Tracer.n_spans (List.length !Tracer.kept)
          (Filename.concat !out_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed));
        Tracer.write (Filename.concat !out_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed));
        Printf.printf "# traced half: %s p50 %s ms vs untraced %s ms\n" r.main (num (p50 t)) (num (p50 r.untraced));
        r.layer @ [ ("trace.overhead_p50_ms", over); ("trace.overhead_ratio", per over (p50 r.untraced)) ]
  in
  let attempted = r.untraced.attempted + (match r.traced with Some t -> t.attempted | None -> 0) in
  let failed = r.untraced.failed + (match r.traced with Some t -> t.failed | None -> 0) in
  let correct = failed = 0 && List.for_all snd r.checks in
  let metrics =
    if !trace then
      List.map (fun (n, u) -> (n, u, Option.value ~default:0. (List.assoc_opt n layer))) per_layer
    else List.map (fun (n, u) -> (n, u, List.assoc n e2e)) end_to_end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 attempted) failed
    (String.concat ", "
       (List.map (fun (n, u, v) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (num v) u) metrics))

let () =
  match main () with
  | () -> ()
  | exception e ->
      Printf.eprintf "bench: %s\n%!" (match e with Failure m -> m | e -> Printexc.to_string e);
      exit 1
