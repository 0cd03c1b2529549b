(* INSERT INTO t NEW INTO d SELECT ...: the semi-naive merge statement.
   Every row of the query that is new to [t] goes into [t] and into [d];
   the affected count is the number of new rows. Checked on both
   backends, through the prepared-statement path and the ad hoc one, and
   against rollback, snapshots, the WAL and the sanitizer. *)

module E = Rdbms.Engine
module V = Rdbms.Value
module W = Rdbms.Wal
module P = Rdbms.Persist

let backends = [ ("interpreted", E.Interpreted); ("compiled", E.Compiled) ]

let exec e sql = ignore (E.exec e sql : E.result)

let rows e table =
  List.sort compare
    (List.map (fun r -> List.map V.to_string (Array.to_list r)) (E.query e ("SELECT * FROM " ^ table)))

let affected e sql =
  match E.exec e sql with
  | E.Affected n -> n
  | _ -> Alcotest.fail (sql ^ ": expected an affected count")

(* p holds 1 and 2; cand holds 2, 3 and 4 — 3 and 4 are new to p *)
let setup ?(backend = E.Compiled) () =
  let e = E.create () in
  E.set_exec_backend e backend;
  E.set_sanitize e true;
  List.iter (exec e)
    [
      "CREATE TABLE p (a integer, b char)";
      "CREATE TABLE d (a integer, b char)";
      "CREATE TABLE cand (a integer, b char)";
      "INSERT INTO p VALUES (1, 'x'), (2, 'y')";
      "INSERT INTO cand VALUES (2, 'y'), (3, 'z'), (4, 'w')";
    ];
  e

let merge = "INSERT INTO p NEW INTO d SELECT * FROM cand"
let r a b = [ string_of_int a; b ]

let test_new_rows () =
  List.iter
    (fun (name, backend) ->
      let e = setup ~backend () in
      Alcotest.(check int) (name ^ ": affected = new rows") 2 (affected e merge);
      Alcotest.(check (list (list string))) (name ^ ": p absorbed them")
        [ r 1 "x"; r 2 "y"; r 3 "z"; r 4 "w" ] (rows e "p");
      Alcotest.(check (list (list string))) (name ^ ": d holds exactly the new rows")
        [ r 3 "z"; r 4 "w" ] (rows e "d");
      (* a second run finds nothing new: the prepared plan is reused *)
      exec e "TRUNCATE TABLE d";
      Alcotest.(check int) (name ^ ": nothing new the second time") 0 (affected e merge);
      Alcotest.(check (list (list string))) (name ^ ": d stays empty") [] (rows e "d");
      (* duplicates within the source count once, in p and in d *)
      exec e "INSERT INTO cand VALUES (5, 'v')";
      Alcotest.(check int) (name ^ ": a duplicated source row counts once") 1
        (affected e
           "INSERT INTO p NEW INTO d SELECT * FROM cand UNION ALL SELECT * FROM cand");
      Alcotest.(check (list (list string))) (name ^ ": d holds it once") [ r 5 "v" ] (rows e "d");
      (* d's existing rows stay; a new row that d already holds is not doubled *)
      exec e "INSERT INTO d VALUES (6, 'u')";
      exec e "INSERT INTO cand VALUES (6, 'u'), (7, 't')";
      Alcotest.(check int) (name ^ ": counted against p, not d") 2 (affected e merge);
      Alcotest.(check (list (list string))) (name ^ ": d is a set")
        [ r 5 "v"; r 6 "u"; r 7 "t" ] (rows e "d");
      Alcotest.(check (list string)) (name ^ ": invariants") []
        (List.map Rdbms.Invariants.violation_to_string (E.check_invariants e)))
    backends

let test_rejections () =
  let e = setup () in
  exec e "CREATE TABLE wide (a integer, b char, c integer)";
  exec e "CREATE TABLE swapped (b char, a integer)";
  let rejected what sql =
    match E.exec e sql with
    | exception E.Sql_error _ -> ()
    | _ -> Alcotest.fail (what ^ " was accepted")
  in
  rejected "the target itself" "INSERT INTO p NEW INTO p SELECT * FROM cand";
  rejected "the target itself, other case" "INSERT INTO p NEW INTO P SELECT * FROM cand";
  rejected "another arity" "INSERT INTO p NEW INTO wide SELECT * FROM cand";
  rejected "other column types" "INSERT INTO p NEW INTO swapped SELECT * FROM cand";
  rejected "a missing table" "INSERT INTO p NEW INTO nosuch SELECT * FROM cand";
  Alcotest.(check (list (list string))) "a rejected statement changes nothing"
    [ r 1 "x"; r 2 "y" ] (rows e "p")

let test_rollback () =
  let e = setup () in
  exec e "INSERT INTO d VALUES (9, 'q')";
  let p0 = rows e "p" and d0 = rows e "d" in
  exec e "BEGIN";
  Alcotest.(check int) "merged inside the transaction" 2 (affected e merge);
  exec e "ROLLBACK";
  Alcotest.(check (list (list string))) "p restored" p0 (rows e "p");
  Alcotest.(check (list (list string))) "d restored" d0 (rows e "d");
  Alcotest.(check (list string)) "invariants" []
    (List.map Rdbms.Invariants.violation_to_string (E.check_invariants e))

let test_snapshot () =
  let e = setup () in
  let ts = E.begin_snapshot e in
  Alcotest.(check int) "merged" 2 (affected e merge);
  let snap table =
    List.length (E.query_snapshot e ~ts ("SELECT * FROM " ^ table))
  in
  Alcotest.(check int) "the snapshot sees p as it was" 2 (snap "p");
  Alcotest.(check int) "the snapshot sees d as it was" 0 (snap "d");
  Alcotest.(check int) "live p grew" 4 (List.length (rows e "p"));
  E.release_snapshot e ts;
  Alcotest.(check int) "release prunes every version" 0 (E.snapshot_versions e)

let test_wal_recovery () =
  let wal = Filename.concat (Filename.get_temp_dir_name ()) "dkb_new_into.wal" in
  (try Sys.remove wal with Sys_error _ -> ());
  let e = E.create () in
  let w = W.open_log wal in
  W.attach w e;
  List.iter (exec e)
    [
      "CREATE TABLE p (a integer, b char)";
      "CREATE TABLE d (a integer, b char)";
      "CREATE TABLE cand (a integer, b char)";
      "INSERT INTO p VALUES (1, 'x')";
      "INSERT INTO cand VALUES (1, 'x'), (2, 'y')";
      merge;
    ];
  let logged = W.read_records wal in
  Alcotest.(check bool) "the merge was logged as NEW INTO" true
    (List.exists (fun (r : string) -> Astring.String.is_infix ~affix:"NEW INTO d" r) logged);
  let e2, _ = match W.recover ~db:"/nonexistent/dkb_new_into.db" ~wal () with
    | Ok v -> v
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check (list (list string))) "p recovered" (rows e "p") (rows e2 "p");
  Alcotest.(check (list (list string))) "d recovered" (rows e "d") (rows e2 "d");
  Alcotest.(check string) "recovered dump matches" (P.dump e) (P.dump e2);
  W.close w;
  Sys.remove wal

let test_trace_rows () =
  let e = setup () in
  let ends = ref [] in
  E.set_trace_hook e
    (Some (function E.Tr_stmt_end { sql; rows; _ } -> ends := (sql, rows) :: !ends | _ -> ()));
  exec e merge;
  E.set_trace_hook e None;
  Alcotest.(check (list (pair string (option int)))) "one traced statement, 2 rows"
    [ (merge, Some 2) ] !ends

let () =
  Alcotest.run "new_into"
    [
      ( "insert new into",
        [
          Alcotest.test_case "new rows into both tables" `Quick test_new_rows;
          Alcotest.test_case "rejections" `Quick test_rejections;
          Alcotest.test_case "rollback restores both" `Quick test_rollback;
          Alcotest.test_case "snapshot sees neither insert" `Quick test_snapshot;
          Alcotest.test_case "WAL recovery" `Quick test_wal_recovery;
          Alcotest.test_case "traced as one statement" `Quick test_trace_rows;
        ] );
    ]
