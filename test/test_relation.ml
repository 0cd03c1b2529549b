(* Unit tests for Relation, Index and Catalog. *)

module V = Rdbms.Value
module D = Rdbms.Datatype
module S = Rdbms.Schema
module R = Rdbms.Relation
module I = Rdbms.Index
module C = Rdbms.Catalog

let schema2 = S.make [ ("a", D.TInt); ("b", D.TStr) ]

let row i s = [| V.Int i; V.Str s |]

let test_insert_set_semantics () =
  let r = R.create schema2 in
  Alcotest.(check bool) "new" true (R.insert r (row 1 "x"));
  Alcotest.(check bool) "dup" false (R.insert r (row 1 "x"));
  Alcotest.(check int) "cardinal" 1 (R.cardinal r);
  Alcotest.(check bool) "mem" true (R.mem r (row 1 "x"))

let test_insert_validates () =
  let r = R.create schema2 in
  Alcotest.(check bool) "bad arity raises" true
    (try
       ignore (R.insert r [| V.Int 1 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad type raises" true
    (try
       ignore (R.insert r [| V.Str "x"; V.Str "y" |]);
       false
     with Invalid_argument _ -> true)

let test_delete () =
  let r = R.create schema2 in
  ignore (R.insert r (row 1 "x"));
  ignore (R.insert r (row 2 "y"));
  Alcotest.(check bool) "deleted" true (R.delete r (row 1 "x"));
  Alcotest.(check bool) "absent" false (R.delete r (row 1 "x"));
  Alcotest.(check int) "cardinal" 1 (R.cardinal r);
  Alcotest.(check (list string)) "iteration skips tombstones" [ "(2, y)" ]
    (List.map Rdbms.Tuple.to_string (R.to_list r))

let test_insertion_order () =
  let r = R.create schema2 in
  let rows = [ row 3 "c"; row 1 "a"; row 2 "b" ] in
  List.iter (fun x -> ignore (R.insert r x)) rows;
  Alcotest.(check (list string)) "insertion order"
    (List.map Rdbms.Tuple.to_string rows)
    (List.map Rdbms.Tuple.to_string (R.to_list r))

let test_bytes_and_pages () =
  let r = R.create schema2 in
  Alcotest.(check int) "empty bytes" 0 (R.byte_size r);
  Alcotest.(check int) "empty is zero pages" 0 (R.pages r);
  ignore (R.insert r (row 1 "abc"));
  (* 4 header + 4 int + 3 str *)
  Alcotest.(check int) "bytes" 11 (R.byte_size r);
  Alcotest.(check int) "one page once non-empty" 1 (R.pages r);
  ignore (R.delete r (row 1 "abc"));
  Alcotest.(check int) "bytes restored" 0 (R.byte_size r)

let test_clear () =
  let r = R.create schema2 in
  ignore (R.insert r (row 1 "x"));
  R.clear r;
  Alcotest.(check int) "empty" 0 (R.cardinal r);
  Alcotest.(check bool) "reinsert ok" true (R.insert r (row 1 "x"))

let fill r n = for i = 0 to n - 1 do ignore (R.insert r (row i "v")) done

(* TRUNCATE keeps its capacity for the refill that follows, and gives it
   back once the arrays dwarf what the cleared rows needed *)
let test_clear_keeps_capacity () =
  let r = R.create schema2 in
  fill r 1000;
  let grown = R.capacity r in
  Alcotest.(check bool) "grown to fit" true (grown >= 1000);
  R.clear r;
  Alcotest.(check int) "capacity kept" grown (R.capacity r);
  Alcotest.(check (list string)) "audit clean after clear" [] (R.check r);
  fill r 1000;
  Alcotest.(check int) "refill needs no growth" grown (R.capacity r);
  Alcotest.(check int) "refilled" 1000 (R.cardinal r);
  Alcotest.(check (list string)) "audit clean after refill" [] (R.check r);
  R.clear r;
  (* a small fill, then a clear: 1024 slots > 4 x 16 needed *)
  fill r 10;
  R.clear r;
  Alcotest.(check int) "shrunk past the bound" 16 (R.capacity r);
  Alcotest.(check (list string)) "audit clean after shrink" [] (R.check r);
  fill r 40;
  R.clear r;
  Alcotest.(check int) "within the bound: kept" 64 (R.capacity r)

let test_tuple_tbl_reset () =
  let module T = Rdbms.Tuple_tbl in
  let t = T.create () in
  for i = 0 to 999 do ignore (T.add t (row i "v")) done;
  let grown = T.capacity t in
  T.reset t;
  Alcotest.(check int) "capacity kept" grown (T.capacity t);
  Alcotest.(check int) "empty" 0 (T.length t);
  Alcotest.(check bool) "old keys gone" false (T.mem t (row 5 "v"));
  Alcotest.(check (list string)) "audit clean after reset" [] (T.check t);
  for i = 0 to 999 do ignore (T.insert_if_absent t (row i "w") i) done;
  Alcotest.(check int) "refill needs no growth" grown (T.capacity t);
  Alcotest.(check int) "refilled lookups" 7 (T.find t (row 7 "w"));
  Alcotest.(check (list string)) "audit clean after refill" [] (T.check t);
  T.reset t;
  for i = 0 to 4 do ignore (T.add t (row i "x")) done;
  T.reset t;
  Alcotest.(check int) "shrunk to the need of 5 entries" 16 (T.capacity t);
  Alcotest.(check (list string)) "audit clean after shrink" [] (T.check t)

let test_observer_order () =
  (* registration is O(1) (cons); notification order is unspecified but
     currently most-recently-registered first — pin it so a change is
     deliberate *)
  let r = R.create schema2 in
  let trace = ref [] in
  R.on_insert r (fun _ _ -> trace := "first" :: !trace);
  R.on_insert r (fun _ _ -> trace := "second" :: !trace);
  ignore (R.insert r (row 1 "x"));
  Alcotest.(check (list string)) "most-recent first" [ "second"; "first" ] (List.rev !trace);
  trace := [];
  R.on_clear r (fun () -> trace := "clear_a" :: !trace);
  R.on_clear r (fun () -> trace := "clear_b" :: !trace);
  R.clear r;
  Alcotest.(check (list string)) "clear order" [ "clear_b"; "clear_a" ] (List.rev !trace)

(* ---------------- index ---------------- *)

let test_index_lookup () =
  let r = R.create schema2 in
  ignore (R.insert r (row 1 "x"));
  ignore (R.insert r (row 2 "x"));
  ignore (R.insert r (row 3 "y"));
  let idx = I.create ~name:"i_b" r ~column:"b" in
  Alcotest.(check int) "x count" 2 (I.lookup_count idx (V.Str "x"));
  Alcotest.(check int) "distinct keys" 2 (I.distinct_keys idx);
  Alcotest.(check (list string)) "insertion order" [ "(1, x)"; "(2, x)" ]
    (List.map Rdbms.Tuple.to_string (I.lookup idx (V.Str "x")));
  Alcotest.(check (list string)) "miss" [] (List.map Rdbms.Tuple.to_string (I.lookup idx (V.Str "z")))

let test_index_tracks_changes () =
  let r = R.create schema2 in
  let idx = I.create ~name:"i_a" r ~column:"a" in
  ignore (R.insert r (row 1 "x"));
  Alcotest.(check int) "after insert" 1 (I.lookup_count idx (V.Int 1));
  ignore (R.delete r (row 1 "x"));
  Alcotest.(check int) "after delete" 0 (I.lookup_count idx (V.Int 1));
  ignore (R.insert r (row 1 "x"));
  R.clear r;
  Alcotest.(check int) "after clear" 0 (I.lookup_count idx (V.Int 1))

let test_index_bad_column () =
  let r = R.create schema2 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (I.create ~name:"i" r ~column:"nope");
       false
     with Invalid_argument _ -> true)

(* ---------------- catalog ---------------- *)

let test_catalog_tables () =
  let c = C.create () in
  (match C.create_table c "t1" schema2 with Ok _ -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "exists case-insensitive" true (C.table_exists c "T1");
  Alcotest.(check bool) "dup rejected" true (Result.is_error (C.create_table c "T1" schema2));
  (match C.drop_table c "t1" with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "gone" false (C.table_exists c "t1");
  Alcotest.(check bool) "drop missing" true (Result.is_error (C.drop_table c "t1"))

let test_catalog_indexes () =
  let c = C.create () in
  (match C.create_table c "t" schema2 with Ok _ -> () | Error e -> Alcotest.fail e);
  (match C.create_index c ~name:"ix" ~table:"t" ~column:"a" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "found" true (C.find_index c ~table:"t" ~column:"A" <> None);
  Alcotest.(check bool) "dup name" true
    (Result.is_error (C.create_index c ~name:"ix" ~table:"t" ~column:"b"));
  Alcotest.(check bool) "bad column" true
    (Result.is_error (C.create_index c ~name:"ix2" ~table:"t" ~column:"zz"));
  (match C.drop_index c "IX" with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "dropped" true (C.find_index c ~table:"t" ~column:"a" = None)

let test_catalog_version () =
  let c = C.create () in
  let v0 = C.version c in
  (match C.create_table c "t" schema2 with Ok _ -> () | Error e -> Alcotest.fail e);
  let v1 = C.version c in
  Alcotest.(check bool) "create table bumps" true (v1 > v0);
  (match C.create_index c ~name:"ix" ~table:"t" ~column:"a" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let v2 = C.version c in
  Alcotest.(check bool) "create index bumps" true (v2 > v1);
  (* clearing rows is not a schema change *)
  R.clear (C.find_table_exn c "t").C.tbl_relation;
  Alcotest.(check int) "clear does not bump" v2 (C.version c);
  (match C.drop_index c "ix" with Ok () -> () | Error e -> Alcotest.fail e);
  (match C.drop_table c "t" with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "drops bump" true (C.version c > v2)

let test_catalog_drop_table_drops_indexes () =
  let c = C.create () in
  (match C.create_table c "t" schema2 with Ok _ -> () | Error e -> Alcotest.fail e);
  (match C.create_index c ~name:"ix" ~table:"t" ~column:"a" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match C.drop_table c "t" with Ok () -> () | Error e -> Alcotest.fail e);
  (* index name is free again *)
  (match C.create_table c "t" schema2 with Ok _ -> () | Error e -> Alcotest.fail e);
  match C.create_index c ~name:"ix" ~table:"t" ~column:"a" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "relation"
    [
      ( "relation",
        [
          Alcotest.test_case "set semantics" `Quick test_insert_set_semantics;
          Alcotest.test_case "schema validation" `Quick test_insert_validates;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "insertion order" `Quick test_insertion_order;
          Alcotest.test_case "bytes and pages" `Quick test_bytes_and_pages;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "clear keeps capacity" `Quick test_clear_keeps_capacity;
          Alcotest.test_case "tuple table reset" `Quick test_tuple_tbl_reset;
          Alcotest.test_case "observer order" `Quick test_observer_order;
        ] );
      ( "index",
        [
          Alcotest.test_case "lookup" `Quick test_index_lookup;
          Alcotest.test_case "tracks changes" `Quick test_index_tracks_changes;
          Alcotest.test_case "bad column" `Quick test_index_bad_column;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "tables" `Quick test_catalog_tables;
          Alcotest.test_case "indexes" `Quick test_catalog_indexes;
          Alcotest.test_case "version" `Quick test_catalog_version;
          Alcotest.test_case "drop table drops indexes" `Quick test_catalog_drop_table_drops_indexes;
        ] );
    ]
