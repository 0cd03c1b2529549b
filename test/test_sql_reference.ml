(* The engine against an oracle that shares no code with it: every
   statement runs through Engine.exec (planner, cost model and executor,
   under each join-order mode and both execution backends) and through
   Sql_reference, which evaluates the parsed statement directly. Results
   are compared as multisets, ORDER BY results also on their key
   sequence, and after each INSERT ... SELECT, DELETE and UPDATE the
   whole table and the affected-row count are compared. A fixed battery
   covers every plan operator; a QCheck generator adds random schemas,
   rows and statements. *)

module E = Rdbms.Engine
module A = Rdbms.Sql_ast
module Datatype = Rdbms.Datatype
module Value = Rdbms.Value
module Planner = Rdbms.Planner
module Ref = Sql_reference
module Rng = Dkb_util.Rng
module Gen = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* One statement through the engine and the reference.                *)

let show rows =
  "["
  ^ String.concat "; "
      (List.map (fun r -> String.concat "," (Array.to_list (Array.map Value.to_string r))) rows)
  ^ "]"

let same_rows a b = List.equal (fun x y -> Ref.compare_rows x y = 0) a b
let sorted rows = List.sort Ref.compare_rows rows

let disagree sql fmt = Printf.ksprintf (fun m -> failwith (sql ^ ": " ^ m)) fmt

let check_rows sql ~what ~expected ~got =
  if not (same_rows expected got) then
    disagree sql "%s: reference %s, engine %s" what (show expected) (show got)

(* the statements [check] compares with the reference *)
let compared = function
  | A.Select _ | A.Insert_select _ | A.Delete _ | A.Update _ -> true
  | _ -> false

(* Run [stmt] (whose text is [sql]) on the engine and raise Failure on the
   first disagreement with the reference; DDL and ANALYZE just run. *)
let check e sql stmt =
  let cat = E.catalog e in
  let mutation table (expected, affected) =
    (match E.exec e sql with
    | E.Affected n when n = affected -> ()
    | E.Affected n -> disagree sql "affected: reference %d, engine %d" affected n
    | _ -> disagree sql "expected an affected-row count");
    check_rows sql ~what:("table " ^ table) ~expected ~got:(Ref.contents cat table)
  in
  match stmt with
  | A.Select { query; order_by } ->
      let expected = Ref.select cat query order_by in
      let got =
        match E.exec e sql with
        | E.Rows { rows; _ } -> rows
        | _ -> disagree sql "expected rows"
      in
      check_rows sql ~what:"rows (as multisets)" ~expected:(sorted expected) ~got:(sorted got);
      if order_by <> [] then begin
        let keys = Ref.order_keys cat query order_by in
        let key_seq = List.map (fun r -> Array.of_list (List.map (fun (i, _) -> r.(i)) keys)) in
        check_rows sql ~what:"ORDER BY key sequence" ~expected:(key_seq expected) ~got:(key_seq got)
      end
  | A.Insert_select { table; new_into = None; query } ->
      mutation table (Ref.insert_select cat table query)
  | A.Insert_select { table; new_into = Some d; query } ->
      let expected_d = Ref.new_into cat table d query in
      mutation table (Ref.insert_select cat table query);
      check_rows sql ~what:("NEW INTO table " ^ d) ~expected:expected_d ~got:(Ref.contents cat d)
  | A.Delete { table; where } -> mutation table (Ref.delete cat table where)
  | A.Update { table; sets; where } -> mutation table (Ref.update cat table sets where)
  | _ -> ignore (E.exec e sql)

let check_sql e sql = check e sql (Rdbms.Sql_parser.parse sql)
let checked e sqls = List.iter (check_sql e) sqls

(* ------------------------------------------------------------------ *)
(* Fixed battery: every operator the planner can emit, over randomized
   data ([big] has duplicate keys in a small domain so joins fan out,
   [small] keeps a few keys, [third] starts empty).                   *)

let backends = [ E.Compiled; E.Interpreted ]

let backend_name = function
  | E.Compiled -> "compiled"
  | E.Interpreted -> "interpreted"

let seeded ?(index = true) backend seed =
  let e = E.create () in
  E.set_exec_backend e backend;
  checked e
    [
      "CREATE TABLE big (k integer, v char)";
      "CREATE TABLE small (k integer, w char)";
      "CREATE TABLE third (k integer, z char)";
    ];
  if index then
    checked e [ "CREATE INDEX idx_big_k ON big (k)"; "CREATE INDEX idx_small_k ON small (k)" ];
  let rng = Rng.create seed in
  let letter () = Printf.sprintf "s%d" (Rng.int rng 4) in
  checked e
    (List.init 60 (fun _ ->
         Printf.sprintf "INSERT INTO big VALUES (%d, '%s')" (Rng.int rng 20) (letter ()))
    @ List.init 12 (fun _ ->
          Printf.sprintf "INSERT INTO small VALUES (%d, '%s')" (Rng.int rng 20) (letter ())));
  e

let battery =
  [
    "SELECT v FROM big WHERE k = 5";
    "SELECT v FROM big WHERE 5 = k";
    "SELECT v FROM big WHERE k > 5";
    "SELECT v FROM big WHERE k > 3 AND k < 9 AND NOT v = 's0'";
    "SELECT b.v FROM small s, big b WHERE s.k = b.k";
    "SELECT b.v FROM small s, big b WHERE s.k = b.k AND b.v = 's1'";
    "SELECT b.v, s.w FROM small s, big b";
    "SELECT b.v FROM small s, big b WHERE s.k < b.k";
    "SELECT v FROM big WHERE NOT EXISTS (SELECT * FROM small s WHERE s.k = big.k)";
    "SELECT v FROM big WHERE NOT EXISTS (SELECT * FROM small s WHERE s.k = big.k AND s.w <> big.v)";
    "SELECT DISTINCT v FROM big";
    "SELECT DISTINCT * FROM big";
    "SELECT v FROM big ORDER BY v";
    "SELECT k, v FROM big ORDER BY v DESC, k";
    "SELECT t.z FROM small s, big b, third t WHERE s.k = b.k AND b.k = t.k";
    "SELECT COUNT(*) FROM big";
    "SELECT COUNT(*) FROM big WHERE k = 5";
    "SELECT COUNT(*) FROM third";
    "SELECT MIN(k), MAX(z) FROM third";
    "SELECT v, COUNT(*) FROM big GROUP BY v";
    "SELECT v, COUNT(*), SUM(k) FROM big GROUP BY v ORDER BY 1";
    "SELECT MIN(k), MAX(k), COUNT(v) FROM big WHERE v = 's2'";
    "SELECT v FROM big UNION SELECT w FROM small";
    "SELECT v FROM big UNION ALL SELECT w FROM small";
    "SELECT v FROM big EXCEPT SELECT w FROM small";
    "SELECT * FROM big EXCEPT SELECT * FROM small";
    "SELECT * FROM small UNION SELECT * FROM big";
  ]

(* each statement twice: the first run plans, the second reuses the
   cached plan (and, compiled, its closure tree) *)
let run_battery e = List.iter (fun sql -> check_sql e sql; check_sql e sql) battery

let test_battery_indexed () = List.iter (fun b -> run_battery (seeded b 11)) backends
let test_battery_no_index () = List.iter (fun b -> run_battery (seeded ~index:false b 12)) backends

let mutations =
  [
    "INSERT INTO third SELECT k, v FROM big WHERE k < 10";
    "INSERT INTO third SELECT b.k, s.w FROM big b, small s WHERE b.k = s.k";
    (* rows new to third also land in small; duplicate source rows count once *)
    "INSERT INTO third NEW INTO small SELECT k, v FROM big UNION ALL SELECT k, v FROM big";
    "DELETE FROM third WHERE k > 12";
    "DELETE FROM big WHERE k = 3";
    "DELETE FROM big WHERE k = 4 AND v = 's1'";
    "DELETE FROM big WHERE v = 's0' OR k >= 17";
    "UPDATE third SET z = 'u' WHERE k = 1";
    "UPDATE big SET k = 7 WHERE k > 2 AND k < 6";
    "UPDATE small SET w = 's9', k = 0 WHERE NOT w = 's1'";
    "TRUNCATE TABLE third";
    (* (1, 2) becomes (2, 3) while the old (2, 3) becomes (3, 3) *)
    "CREATE TABLE pairs (x integer, y integer)";
    "INSERT INTO pairs VALUES (1, 2), (2, 3)";
    "UPDATE pairs SET x = y, y = 3";
    (* the DELETE index probe must still apply the other equality *)
    "CREATE INDEX idx_pairs_y ON pairs (y)";
    "DELETE FROM pairs WHERE y = 3 AND x = 2";
  ]

(* each data modification, then the whole battery over the new state *)
let test_mutations () =
  List.iter
    (fun backend ->
      let e = seeded backend 14 in
      List.iter
        (fun sql ->
          check_sql e sql;
          run_battery e)
        mutations)
    backends

(* ------------------------------------------------------------------ *)
(* Random schemas, rows and statements.

   Three tables t0..t2, each with c0 integer and c1 char (so every scope
   offers both types) and maybe a c2 of either type; small value domains
   so that joins, equalities and duplicates are common; hash or ordered
   indexes on random columns. Statements are well-typed by construction:
   the engine must accept every one.                                  *)

type table = { name : string; cols : (string * Datatype.t) list }

type case = {
  tables : table list;
  indexes : (string * string * bool) list; (* table, column, ordered *)
  rows : (string * Value.t list) list;
  stmts : A.stmt list;
}

let ( let* ) = Gen.( let* )

let value_gen = function
  | Datatype.TInt -> Gen.map (fun n -> Value.Int n) (Gen.int_range 0 5)
  | Datatype.TStr -> Gen.map (fun s -> Value.Str s) (Gen.oneofl [ "a"; "b"; "c"; "d" ])

let lit_gen ty = Gen.map (fun v -> A.Lit (A.literal_of_value v)) (value_gen ty)

let type_gen = Gen.oneofl [ Datatype.TInt; Datatype.TStr ]

let tables_gen =
  Gen.flatten_l
    (List.init 3 (fun i ->
         Gen.map
           (fun extra ->
             {
               name = Printf.sprintf "t%d" i;
               cols =
                 [ ("c0", Datatype.TInt); ("c1", Datatype.TStr) ]
                 @ Option.fold ~none:[] ~some:(fun ty -> [ ("c2", ty) ]) extra;
             })
           (Gen.opt type_gen)))

(* a column in scope: its reference and type *)
type col = { ref_ : A.column_ref; ty : Datatype.t }

let cols_of ?qualifier t =
  List.map (fun (c, ty) -> { ref_ = { A.qualifier; column = c }; ty }) t.cols

let of_type ty cols = List.filter (fun c -> c.ty = ty) cols
let col_gen cols = Gen.map (fun c -> A.Col c.ref_) (Gen.oneofl cols)

let cmp_gen cols =
  let* lhs = Gen.oneofl cols in
  let* op = Gen.oneofl A.[ Eq; Eq; Eq; Neq; Lt; Le; Gt; Ge ] in
  let* rhs =
    Gen.frequency [ (3, lit_gen lhs.ty); (2, col_gen (of_type lhs.ty cols)) ]
  in
  let* flip = Gen.bool in
  Gen.return (if flip then A.Cmp (rhs, op, A.Col lhs.ref_) else A.Cmp (A.Col lhs.ref_, op, rhs))

let rec cond_gen cols depth =
  if depth = 0 then cmp_gen cols
  else
    let sub = cond_gen cols (depth - 1) in
    Gen.frequency
      [
        (5, sub);
        (2, Gen.map2 (fun a b -> A.And (a, b)) sub sub);
        (2, Gen.map2 (fun a b -> A.Or (a, b)) sub sub);
        (1, Gen.map (fun a -> A.Not a) sub);
        (* a constant condition *)
        (let int = lit_gen Datatype.TInt in
         (1, Gen.map2 (fun a b -> A.Cmp (a, A.Lt, b)) int int));
      ]

let conj = function
  | [] -> None
  | c :: cs -> Some (List.fold_left (fun acc c -> A.And (acc, c)) c cs)

(* NOT EXISTS over one table [n], correlated by equalities with the
   outer scope and optionally filtered further *)
let not_exists_gen tables outer =
  let* t = Gen.oneofl tables in
  let inner = cols_of ~qualifier:"n" t in
  let* keys =
    Gen.list_size (Gen.int_range 0 2)
      (let* i = Gen.oneofl inner in
       let* o = Gen.oneofl (of_type i.ty outer) in
       Gen.return (A.Cmp (A.Col i.ref_, A.Eq, A.Col o.ref_)))
  in
  let* extra = Gen.list_size (Gen.int_range 0 1) (cond_gen (inner @ outer) 1) in
  Gen.return
    (A.Not_exists
       {
         A.distinct = false;
         items = [ A.Sel_star ];
         from = [ { A.table = t.name; alias = Some "n" } ];
         where = conj (keys @ extra);
         group_by = [];
       })

let alias_gen i = Gen.map (fun b -> if b then Some (Printf.sprintf "o%d" i) else None) Gen.bool

(* Select items producing [sig_] (any types when [None]), plain or
   aggregated. *)
let items_gen cols sig_ =
  let* sig_ =
    match sig_ with
    | Some s -> Gen.return s
    | None -> Gen.list_size (Gen.int_range 1 3) type_gen
  in
  let plain =
    Gen.flatten_l
      (List.mapi
         (fun i ty ->
           let* s = Gen.frequency [ (4, col_gen (of_type ty cols)); (1, lit_gen ty) ] in
           let* a = alias_gen i in
           Gen.return (A.Sel_expr (s, a)))
         sig_)
  in
  let grouped =
    let* group = Gen.list_size (Gen.int_range 0 2) (Gen.oneofl cols) in
    let* items =
      Gen.flatten_l
        (List.mapi
           (fun i ty ->
             let* a = alias_gen i in
             let keyed =
               List.map (fun c -> (3, Gen.return (A.Sel_expr (A.Col c.ref_, a)))) (of_type ty group)
             in
             let agg fn cols = Gen.map (fun s -> A.Sel_agg (fn, s, a)) (col_gen cols) in
             Gen.frequency
               (keyed
               @ [ (1, agg A.Agg_min (of_type ty cols)); (1, agg A.Agg_max (of_type ty cols)) ]
               @
               if ty = Datatype.TInt then
                 [
                   (1, Gen.return (A.Sel_count_star a));
                   (1, agg A.Agg_count cols);
                   (1, agg A.Agg_sum (of_type Datatype.TInt cols));
                 ]
               else []))
           sig_)
    in
    Gen.return (items, List.map (fun c -> c.ref_) group)
  in
  Gen.frequency [ (3, Gen.map (fun i -> (i, [])) plain); (1, grouped) ]

let core_gen tables sig_ =
  let* n = Gen.frequency [ (3, Gen.return 1); (3, Gen.return 2); (1, Gen.return 3) ] in
  let* picked = Gen.list_repeat n (Gen.oneofl tables) in
  let* naming = Gen.oneofl [ `Aliased; `Unaliased; `Unqualified ] in
  let* anti = Gen.frequency [ (4, Gen.return false); (1, Gen.return true) ] in
  (* unqualified columns only where no second scope (NOT EXISTS) can
     make them ambiguous *)
  let from, cols =
    match (picked, naming) with
    | [ t ], `Unaliased -> ([ { A.table = t.name; alias = None } ], cols_of ~qualifier:t.name t)
    | [ t ], `Unqualified when not anti -> ([ { A.table = t.name; alias = None } ], cols_of t)
    | _ ->
        let alias i = Printf.sprintf "a%d" i in
        ( List.mapi (fun i t -> { A.table = t.name; alias = Some (alias i) }) picked,
          List.concat (List.mapi (fun i t -> cols_of ~qualifier:(alias i) t) picked) )
  in
  let* conds = Gen.list_size (Gen.int_range 0 3) (cond_gen cols 1) in
  let* anti =
    if anti then Gen.map (fun c -> [ c ]) (not_exists_gen tables cols) else Gen.return []
  in
  let* star =
    Gen.frequency [ ((if sig_ = None then 1 else 0), Gen.return true); (4, Gen.return false) ]
  in
  let* items, group_by = if star then Gen.return ([ A.Sel_star ], []) else items_gen cols sig_ in
  let* distinct = Gen.frequency [ (4, Gen.return false); (1, Gen.return true) ] in
  Gen.return { A.distinct; items; from; where = conj (conds @ anti); group_by }

(* [SELECT * FROM t], maybe filtered, for a table whose column types
   are [sig_]: unfiltered, it is the bare relation the executor's
   set-operator and COUNT fast paths recognise *)
let star_gen tables sig_ =
  match List.filter (fun t -> List.map snd t.cols = sig_) tables with
  | [] -> None
  | fits ->
      Some
        (let* t = Gen.oneofl fits in
         let* where =
           Gen.frequency [ (2, Gen.return None); (1, Gen.map Option.some (cond_gen (cols_of t) 1)) ]
         in
         let* distinct = Gen.frequency [ (4, Gen.return false); (1, Gen.return true) ] in
         Gen.return
           {
             A.distinct;
             items = [ A.Sel_star ];
             from = [ { A.table = t.name; alias = None } ];
             where;
             group_by = [];
           })

let rec set_query_gen tables sig_ depth =
  let core =
    Gen.map
      (fun c -> A.Q_select c)
      (match star_gen tables sig_ with
      | Some star -> Gen.frequency [ (2, core_gen tables (Some sig_)); (1, star) ]
      | None -> core_gen tables (Some sig_))
  in
  if depth = 0 then core
  else
    Gen.frequency
      [
        (2, core);
        ( 1,
          let* op =
            Gen.oneofl
              [
                (fun a b -> A.Q_union (a, b));
                (fun a b -> A.Q_union_all (a, b));
                (fun a b -> A.Q_except (a, b));
              ]
          in
          let sub = set_query_gen tables sig_ (depth - 1) in
          Gen.map2 op sub sub );
      ]

let rec leftmost = function
  | A.Q_select c -> c
  | A.Q_union (a, _) | A.Q_union_all (a, _) | A.Q_except (a, _) -> leftmost a

let arity tables q =
  let c = leftmost q in
  match c.A.items with
  | [ A.Sel_star ] ->
      let width (f : A.from_item) =
        List.length (List.find (fun t -> t.name = f.A.table) tables).cols
      in
      List.fold_left (fun n f -> n + width f) 0 c.A.from
  | items -> List.length items

(* The shapes the executor short-cuts over a bare relation: COUNT,
   DISTINCT, and a set operation with a bare side. *)
let bare_gen tables =
  let* t = Gen.oneofl tables in
  let star =
    {
      A.distinct = false;
      items = [ A.Sel_star ];
      from = [ { A.table = t.name; alias = None } ];
      where = None;
      group_by = [];
    }
  in
  Gen.frequency
    [
      (1, Gen.return (A.Q_select { star with items = [ A.Sel_count_star None ] }));
      (1, Gen.return (A.Q_select { star with distinct = true }));
      ( 4,
        let* other = set_query_gen tables (List.map snd t.cols) 1 in
        let* op =
          Gen.oneofl
            [
              (fun a b -> A.Q_union (a, b));
              (fun a b -> A.Q_union_all (a, b));
              (fun a b -> A.Q_except (a, b));
            ]
        in
        let* bare_left = Gen.bool in
        Gen.return (if bare_left then op (A.Q_select star) other else op other (A.Q_select star)) );
    ]

let select_gen tables =
  let* query =
    Gen.frequency
      [
        (3, Gen.map (fun c -> A.Q_select c) (core_gen tables None));
        (1, bare_gen tables);
        ( 2,
          let* sig_ =
            Gen.frequency
              [
                (1, Gen.list_size (Gen.int_range 1 2) type_gen);
                (1, Gen.map (fun t -> List.map snd t.cols) (Gen.oneofl tables));
              ]
          in
          set_query_gen tables sig_ 2 );
      ]
  in
  let names =
    List.filter_map
      (function
        | A.Sel_expr (_, a) | A.Sel_agg (_, _, a) | A.Sel_count_star a -> a | A.Sel_star -> None)
      (leftmost query).A.items
  in
  let key =
    let* target =
      Gen.frequency
        ((3, Gen.map (fun i -> `Position i) (Gen.int_range 1 (arity tables query)))
        :: (if names = [] then [] else [ (2, Gen.map (fun n -> `Name n) (Gen.oneofl names)) ]))
    in
    Gen.map (fun descending -> { A.target; descending }) Gen.bool
  in
  let* order_by =
    Gen.frequency [ (2, Gen.return []); (1, Gen.list_size (Gen.int_range 1 2) key) ]
  in
  Gen.return (A.Select { query; order_by })

(* WHERE clauses for DELETE/UPDATE: equality conjunctions (the DELETE
   index fast path when a column is indexed), arbitrary conditions with
   OR/NOT, ranges, or none. *)
let mutation_where_gen t =
  let* qualifier = Gen.oneofl [ None; Some t.name ] in
  let cols = cols_of ?qualifier t in
  let eq =
    let* c = Gen.oneofl cols in
    Gen.map (fun l -> A.Cmp (A.Col c.ref_, A.Eq, l)) (lit_gen c.ty)
  in
  Gen.frequency
    [
      (3, Gen.map conj (Gen.list_size (Gen.int_range 1 2) eq));
      (3, Gen.map Option.some (cond_gen cols 1));
      ( 1,
        let c0 = A.Col (List.hd cols).ref_ in
        Gen.map2
          (fun lo hi -> Some (A.And (A.Cmp (c0, A.Gt, lo), A.Cmp (c0, A.Le, hi))))
          (lit_gen Datatype.TInt) (lit_gen Datatype.TInt) );
      (1, Gen.return None);
    ]

let mutation_gen tables =
  let* t = Gen.oneofl tables in
  Gen.frequency
    [
      ( 2,
        (* a NEW INTO target needs the same column types, so only tables
           whose types match [t]'s are candidates *)
        let twins =
          List.filter_map
            (fun u ->
              if u.name <> t.name && List.map snd u.cols = List.map snd t.cols then Some u.name
              else None)
            tables
        in
        let* new_into =
          if twins = [] then Gen.return None
          else Gen.frequency [ (1, Gen.return None); (2, Gen.map Option.some (Gen.oneofl twins)) ]
        in
        Gen.map
          (fun query -> A.Insert_select { table = t.name; new_into; query })
          (set_query_gen tables (List.map snd t.cols) 1) );
      (2, Gen.map (fun where -> A.Delete { table = t.name; where }) (mutation_where_gen t));
      ( 2,
        let* targets = Gen.shuffle_l t.cols in
        let* n = Gen.int_range 1 (List.length targets) in
        let* sets =
          Gen.flatten_l
            (List.filteri (fun i _ -> i < n) targets
            |> List.map (fun (c, ty) ->
                   Gen.map
                     (fun s -> (c, s))
                     (Gen.frequency [ (2, lit_gen ty); (1, col_gen (of_type ty (cols_of t))) ])))
        in
        Gen.map (fun where -> A.Update { table = t.name; sets; where }) (mutation_where_gen t) );
    ]

let case_gen =
  let* tables = tables_gen in
  let* indexes =
    Gen.map List.concat
      (Gen.flatten_l
         (List.concat_map
            (fun t ->
              List.map
                (fun (c, _) ->
                  Gen.frequency
                    [
                      (2, Gen.return []);
                      (1, Gen.return [ (t.name, c, false) ]);
                      (1, Gen.return [ (t.name, c, true) ]);
                    ])
                t.cols)
            tables))
  in
  let* rows =
    Gen.map List.concat
      (Gen.flatten_l
         (List.map
            (fun t ->
              let row = Gen.flatten_l (List.map (fun (_, ty) -> value_gen ty) t.cols) in
              Gen.list_size (Gen.int_range 0 10) (Gen.map (fun vs -> (t.name, vs)) row))
            tables))
  in
  let* stmts =
    Gen.list_size (Gen.int_range 15 30)
      (Gen.frequency
         [
           (6, select_gen tables);
           (3, mutation_gen tables);
           (1, Gen.return (A.Analyze { table = None }));
         ])
  in
  Gen.return { tables; indexes; rows; stmts }

let setup_sql c =
  List.map (fun t -> A.Create_table { name = t.name; columns = t.cols }) c.tables
  @ List.mapi
      (fun i (table, column, ordered) ->
        A.Create_index { index = Printf.sprintf "ix%d" i; table; column; ordered })
      c.indexes
  @ List.map
      (fun (table, vs) -> A.Insert_values { table; rows = [ List.map A.literal_of_value vs ] })
      c.rows
  @ [ A.Analyze { table = None } ]
  |> List.map Rdbms.Sql_printer.stmt

let print_case c = String.concat ";\n" (setup_sql c @ List.map Rdbms.Sql_printer.stmt c.stmts)

let statements_checked = ref 0
let new_into_checked = ref 0

let modes = [ Planner.Syntactic; Planner.Greedy; Planner.Costed ]

let mode_name = function
  | Planner.Syntactic -> "syntactic"
  | Planner.Greedy -> "greedy"
  | Planner.Costed -> "costed"

let prop_case c =
  List.iter
    (fun (backend, mode) ->
      let e = E.create () in
      E.set_exec_backend e backend;
      List.iter (fun sql -> ignore (E.exec e sql)) (setup_sql c);
      E.set_join_order e mode;
      let where msg =
        failwith (Printf.sprintf "[%s, %s] %s" (backend_name backend) (mode_name mode) msg)
      in
      List.iter
        (fun stmt ->
          let sql = Rdbms.Sql_printer.stmt stmt in
          (match check e sql stmt with
          | () -> ()
          | exception E.Sql_error msg -> where (sql ^ ": engine rejected it: " ^ msg)
          | exception Ref.Unsupported msg -> where (sql ^ ": outside the reference subset: " ^ msg)
          | exception Failure msg -> where msg);
          if compared stmt then incr statements_checked;
          match stmt with
          | A.Insert_select { new_into = Some _; _ } -> incr new_into_checked
          | _ -> ())
        c.stmts;
      match E.check_invariants e with
      | [] -> ()
      | vs -> failwith (String.concat "; " (List.map Rdbms.Invariants.violation_to_string vs)))
    (List.concat_map (fun b -> List.map (fun m -> (b, m)) modes) backends);
  true

let min_statements = 10_000
let min_new_into = 100

let test_random_battery () =
  statements_checked := 0;
  new_into_checked := 0;
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"engine = reference on random SQL" ~print:print_case
       case_gen prop_case);
  Printf.printf "%d statements compared, %d of them INSERT ... NEW INTO\n" !statements_checked
    !new_into_checked;
  if !statements_checked < min_statements then
    Alcotest.failf "only %d statements compared (want >= %d)" !statements_checked min_statements;
  if !new_into_checked < min_new_into then
    Alcotest.failf "only %d NEW INTO statements compared (want >= %d)" !new_into_checked
      min_new_into

let () =
  Alcotest.run "sql_reference"
    [
      ( "reference sql",
        [
          Alcotest.test_case "operator battery, indexed" `Quick test_battery_indexed;
          Alcotest.test_case "operator battery, no index" `Quick test_battery_no_index;
          Alcotest.test_case "mutations" `Quick test_mutations;
          Alcotest.test_case "random statements, every join order" `Quick test_random_battery;
        ] );
    ]
