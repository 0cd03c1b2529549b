(* EXPLAIN ANALYZE and the operator-level profiling layer: per-operator
   counters must sum exactly to the engine-global Stats delta of the
   statement, for plain scans, index joins, and INSERT ... SELECT. *)

module Engine = Rdbms.Engine
module Profile = Rdbms.Profile
module Stats = Rdbms.Stats

let exec e sql = ignore (Engine.exec e sql)

let engine_with_parent () =
  let e = Engine.create () in
  exec e "CREATE TABLE parent (par INT, child INT)";
  exec e "CREATE INDEX idx_par ON parent (par)";
  exec e "CREATE INDEX idx_child ON parent (child)";
  exec e
    "INSERT INTO parent VALUES (1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)";
  e

let check_sums what (profile : Profile.t) (delta : Stats.t) =
  Alcotest.(check int) (what ^ ": reads sum") delta.Stats.page_reads
    (Profile.total_reads profile);
  Alcotest.(check int) (what ^ ": writes sum") delta.Stats.page_writes
    (Profile.total_writes profile);
  Alcotest.(check int) (what ^ ": probes sum") delta.Stats.index_probes
    (Profile.total_probes profile)

let test_join_with_index_sums () =
  let e = engine_with_parent () in
  let sql = "SELECT p.par, q.child FROM parent p, parent q WHERE p.child = q.par" in
  let result, profile, delta = Engine.exec_analyze e sql in
  (match result with
  | Engine.Rows { rows; _ } ->
      (* grandparent pairs of the two-level tree: 1 -> {4,5,6,7} *)
      Alcotest.(check int) "grandparent rows" 4 (List.length rows)
  | _ -> Alcotest.fail "expected Rows");
  check_sums "index join" profile delta;
  Alcotest.(check bool) "an index was probed" true (delta.Stats.index_probes > 0);
  Alcotest.(check bool) "pages were read" true (delta.Stats.page_reads > 0);
  Alcotest.(check int) "root rows = result rows" 4 profile.Profile.rows

let test_per_node_attribution () =
  let e = engine_with_parent () in
  let _, profile, delta =
    Engine.exec_analyze e
      "SELECT p.par, q.child FROM parent p, parent q WHERE p.child = q.par"
  in
  (* the probe charges must sit on the join node, not the scan below it *)
  let rec find pred n =
    if pred n then Some n else List.find_map (find pred) (Profile.children n)
  in
  let is_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  (match find (fun n -> is_prefix "IndexJoin" n.Profile.op) profile with
  | Some join ->
      Alcotest.(check int) "all probes on the IndexJoin node" delta.Stats.index_probes
        join.Profile.probes
  | None -> Alcotest.fail "plan has no IndexJoin node");
  match find (fun n -> is_prefix "SeqScan" n.Profile.op) profile with
  | Some scan -> Alcotest.(check int) "scan probes nothing" 0 scan.Profile.probes
  | None -> Alcotest.fail "plan has no SeqScan node"

let test_render_and_totals_line () =
  let e = engine_with_parent () in
  let text =
    Engine.explain_analyze e
      "SELECT p.par, q.child FROM parent p, parent q WHERE p.child = q.par"
  in
  let contains needle =
    Astring.String.is_infix ~affix:needle text
  in
  Alcotest.(check bool) "names the join operator" true (contains "IndexJoin");
  Alcotest.(check bool) "annotates counters" true (contains "reads=");
  Alcotest.(check bool) "has a Total line" true (contains "Total:");
  Alcotest.(check bool) "reports the cardinality" true (contains "rows=4")

let test_insert_select_analyze () =
  let e = engine_with_parent () in
  exec e "CREATE TABLE grand (a INT, b INT)";
  let result, profile, delta =
    Engine.exec_analyze e
      "INSERT INTO grand SELECT p.par, q.child FROM parent p, parent q WHERE p.child = q.par"
  in
  (match result with
  | Engine.Affected n -> Alcotest.(check int) "inserted" 4 n
  | _ -> Alcotest.fail "expected Affected");
  check_sums "insert-select" profile delta;
  Alcotest.(check bool) "synthetic insert root" true
    (profile.Profile.op = "Insert grand");
  Alcotest.(check bool) "insert charged some writes" true (delta.Stats.page_writes > 0)

(* Tree sums = Stats delta across the operator set, including the fast
   paths over bare relations (COUNT, DISTINCT, UNION and EXCEPT charge
   a scan they never run) and, once the tables are heap-backed, the
   measured scans those fast paths must not skip. *)
let analyzed =
  [
    "SELECT b.v FROM small s, big b WHERE s.k = b.k";
    "SELECT b.v, s.w FROM small s, big b WHERE s.k < b.k";
    "SELECT v FROM big WHERE NOT EXISTS (SELECT * FROM small s WHERE s.k = big.k)";
    "SELECT v, COUNT(*) FROM big GROUP BY v ORDER BY 1";
    "SELECT COUNT(*) FROM big";
    "SELECT DISTINCT * FROM big";
    "SELECT * FROM big UNION SELECT * FROM small";
    "SELECT k, v FROM big WHERE k > 3 EXCEPT SELECT * FROM small";
    "SELECT * FROM big EXCEPT SELECT * FROM small";
    "INSERT INTO third SELECT k, v FROM big WHERE k < 10";
    "INSERT INTO third SELECT * FROM big EXCEPT SELECT * FROM third";
    (* the fused semi-naive merge: rows new to third also land in fourth *)
    "INSERT INTO third NEW INTO fourth SELECT * FROM small";
  ]

let battery_engine () =
  let e = Engine.create () in
  List.iter (exec e)
    [
      "CREATE TABLE big (k INT, v CHAR)";
      "CREATE TABLE small (k INT, w CHAR)";
      "CREATE TABLE third (k INT, z CHAR)";
      "CREATE TABLE fourth (k INT, z CHAR)";
      "CREATE INDEX idx_big_k ON big (k)";
      "CREATE INDEX idx_small_k ON small (k)";
    ];
  for i = 0 to 59 do
    exec e (Printf.sprintf "INSERT INTO big VALUES (%d, 's%d')" (i * 7 mod 20) (i mod 4))
  done;
  for i = 0 to 11 do
    exec e (Printf.sprintf "INSERT INTO small VALUES (%d, 's%d')" (i * 3 mod 20) (i mod 3))
  done;
  e

let test_battery_sums () =
  let run what e =
    List.iter
      (fun sql ->
        let _, profile, delta = Engine.exec_analyze e sql in
        check_sums (what ^ sql) profile delta)
      analyzed
  in
  run "in memory: " (battery_engine ());
  let dir = Filename.temp_dir "dkb_analyze" "" in
  let e = battery_engine () in
  Engine.attach_storage e ~dir ~pool_pages:4 ();
  Engine.drop_page_cache e;
  let _, _, delta = Engine.exec_analyze e "SELECT COUNT(*) FROM big" in
  Alcotest.(check bool) "a cold heap-backed COUNT(*) really reads pages" true
    (delta.Stats.page_reads > 0);
  run "heap-backed: " e;
  Engine.close_storage e;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_non_analyzable_statement () =
  let e = engine_with_parent () in
  (match Engine.exec_analyze e "CREATE TABLE t2 (x INT)" with
  | exception Engine.Sql_error _ -> ()
  | _ -> Alcotest.fail "analyzing DDL should raise Sql_error");
  (* ... and the rejected statement must not have run *)
  match Engine.exec e "SELECT * FROM t2" with
  | exception Engine.Sql_error _ -> ()
  | _ -> Alcotest.fail "t2 should not exist"

let test_missing_table_is_sql_error () =
  let e = Engine.create () in
  (match Engine.exec e "SELECT * FROM nosuch" with
  | exception Engine.Sql_error msg ->
      Alcotest.(check bool) "names the table" true
        (Astring.String.is_infix ~affix:"nosuch" msg)
  | _ -> Alcotest.fail "expected Sql_error");
  (* Catalog.find_table_exn raises the same typed error, not Failure *)
  let catalog = Engine.catalog e in
  match Rdbms.Catalog.find_table_exn catalog "nosuch" with
  | exception Engine.Sql_error _ -> ()
  | exception Failure _ -> Alcotest.fail "find_table_exn must not raise Failure"
  | _ -> Alcotest.fail "expected Sql_error"

let test_trace_hook_events () =
  let e = engine_with_parent () in
  let events = ref [] in
  Engine.set_trace_hook e (Some (fun ev -> events := ev :: !events));
  ignore (Engine.exec e "SELECT par FROM parent WHERE par = 1");
  Engine.set_trace_hook e None;
  let evs = List.rev !events in
  (match evs with
  | [ Engine.Tr_stmt_begin { sql = b }; Engine.Tr_plan { sql = p; tree };
      Engine.Tr_stmt_end { sql = f; ok; rows; delta; ms; est; _ } ] ->
      Alcotest.(check bool) "same sql on begin/plan/end" true (b = p && p = f);
      Alcotest.(check bool) "plan tree rendered" true (String.length tree > 0);
      Alcotest.(check bool) "ok" true ok;
      Alcotest.(check (option int)) "row count" (Some 2) rows;
      (match est with
      | Some e ->
          Alcotest.(check bool) "estimate positive" true
            (e.Rdbms.Cost.rows > 0.0 && e.Rdbms.Cost.cost > 0.0)
      | None -> Alcotest.fail "expected a cost estimate on a planned SELECT");
      Alcotest.(check bool) "charged reads or probes" true
        (delta.Stats.page_reads + delta.Stats.index_probes > 0);
      Alcotest.(check bool) "ms recorded" true (ms >= 0.0)
  | _ ->
      Alcotest.fail
        (Printf.sprintf "expected begin/plan/end, got %d events" (List.length evs)));
  (* with the hook removed, no more events accumulate *)
  let n = List.length !events in
  ignore (Engine.exec e "SELECT par FROM parent");
  Alcotest.(check int) "hook detached" n (List.length !events)

let test_trace_hook_failure () =
  let e = engine_with_parent () in
  let events = ref [] in
  Engine.set_trace_hook e (Some (fun ev -> events := ev :: !events));
  (match Engine.exec e "SELECT * FROM nosuch" with
  | exception Engine.Sql_error _ -> ()
  | _ -> Alcotest.fail "expected Sql_error");
  let saw_failed_end =
    List.exists
      (function Engine.Tr_stmt_end { ok; _ } -> not ok | _ -> false)
      !events
  in
  Alcotest.(check bool) "failing statement still emits stmt_end ok=false" true
    saw_failed_end

let () =
  Alcotest.run "explain_analyze"
    [
      ( "operator counters",
        [
          Alcotest.test_case "join-with-index sums to Stats delta" `Quick
            test_join_with_index_sums;
          Alcotest.test_case "charges sit on the right node" `Quick
            test_per_node_attribution;
          Alcotest.test_case "rendered text" `Quick test_render_and_totals_line;
          Alcotest.test_case "INSERT ... SELECT" `Quick test_insert_select_analyze;
          Alcotest.test_case "statement battery sums to Stats delta" `Quick test_battery_sums;
          Alcotest.test_case "DDL rejected without running" `Quick
            test_non_analyzable_statement;
        ] );
      ( "error boundaries",
        [
          Alcotest.test_case "missing table is Sql_error" `Quick
            test_missing_table_is_sql_error;
        ] );
      ( "trace hook",
        [
          Alcotest.test_case "begin/plan/end per statement" `Quick test_trace_hook_events;
          Alcotest.test_case "failure emits ok=false" `Quick test_trace_hook_failure;
        ] );
    ]
