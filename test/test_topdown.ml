(* Tests for the top-down (QSQ) baseline evaluator, including equivalence
   with the bottom-up SQL runtime on random graphs. *)

module A = Datalog.Ast
module P = Datalog.Parser
module TD = Datalog.Topdown
module V = Rdbms.Value

let tc_rules =
  List.map P.parse_clause [ "tc(X, Y) :- edge(X, Y)."; "tc(X, Y) :- edge(X, Z), tc(Z, Y)." ]

let facts_of edges = function
  | "edge" -> List.map (fun (a, b) -> [ V.Int a; V.Int b ]) edges
  | _ -> []

let is_base p = p = "edge"

let solve edges goal =
  (match TD.solve ~facts:(facts_of edges) ~is_base ~rules:tc_rules ~goal with
  | Ok rows -> rows
  | Error e -> Alcotest.fail (TD.error_to_string e))
  |> List.map (fun r ->
         match r with
         | [| V.Int a; V.Int b |] -> (a, b)
         | _ -> Alcotest.fail "bad row")
  |> List.sort compare

let test_chain () =
  Alcotest.(check (list (pair int int)))
    "bound-first query"
    [ (1, 2); (1, 3) ]
    (solve [ (1, 2); (2, 3) ] (A.atom "tc" [ A.Const (V.Int 1); A.Var "W" ]))

let test_cycle_terminates () =
  Alcotest.(check (list (pair int int)))
    "cyclic data"
    [ (1, 1); (1, 2); (1, 3) ]
    (solve [ (1, 2); (2, 3); (3, 1) ] (A.atom "tc" [ A.Const (V.Int 1); A.Var "W" ]))

let test_free_query () =
  Alcotest.(check (list (pair int int)))
    "all-free goal"
    [ (1, 2); (1, 3); (2, 3) ]
    (solve [ (1, 2); (2, 3) ] (A.atom "tc" [ A.Var "X"; A.Var "Y" ]))

let test_repeated_var_goal () =
  (* tc(X, X): nodes on cycles *)
  Alcotest.(check (list (pair int int)))
    "diagonal goal"
    [ (2, 2); (3, 3) ]
    (solve [ (1, 2); (2, 3); (3, 2) ] (A.atom "tc" [ A.Var "X"; A.Var "X" ]))

let test_ground_goal () =
  Alcotest.(check (list (pair int int)))
    "ground goal provable"
    [ (1, 3) ]
    (solve [ (1, 2); (2, 3) ] (A.atom "tc" [ A.Const (V.Int 1); A.Const (V.Int 3) ]));
  Alcotest.(check (list (pair int int)))
    "ground goal unprovable" []
    (solve [ (1, 2) ] (A.atom "tc" [ A.Const (V.Int 2); A.Const (V.Int 1) ]))

let test_subgoal_relevance () =
  (* a bound query on a long chain should not table subgoals for
     unreachable parts of the graph *)
  let edges = [ (1, 2); (2, 3); (10, 11); (11, 12); (12, 13) ] in
  let subgoals goal =
    match TD.solve_counted ~facts:(facts_of edges) ~is_base ~rules:tc_rules ~goal with
    | Ok (_, n) -> n
    | Error e -> Alcotest.fail (TD.error_to_string e)
  in
  let bound = subgoals (A.atom "tc" [ A.Const (V.Int 1); A.Var "W" ]) in
  let free = subgoals (A.atom "tc" [ A.Var "X"; A.Var "Y" ]) in
  Alcotest.(check bool)
    (Printf.sprintf "bound query avoids the unreachable chain (%d < %d)" bound free)
    true
    (bound <= 4 && bound < free)

let test_program_facts () =
  let rules =
    List.map P.parse_clause [ "vip(boss)."; "vip(X) :- reports(X, Y), vip(Y)." ]
  in
  let facts = function
    | "reports" -> [ [ V.Str "alice"; V.Str "boss" ] ]
    | _ -> []
  in
  let got =
    (match
       TD.solve ~facts ~is_base:(fun p -> p = "reports") ~rules
         ~goal:(A.atom "vip" [ A.Var "X" ])
     with
    | Ok rows -> rows
    | Error e -> Alcotest.fail (TD.error_to_string e))
    |> List.map (fun r -> V.to_string r.(0))
    |> List.sort compare
  in
  Alcotest.(check (list string)) "facts + rules" [ "alice"; "boss" ] got

let test_negation_rejected () =
  let rules = List.map P.parse_clause [ "p(X) :- edge(X, Y), not tcx(Y)." ] in
  match
    TD.solve ~facts:(facts_of [ (1, 2) ]) ~is_base ~rules ~goal:(A.atom "p" [ A.Var "X" ])
  with
  | Error (TD.Unsupported _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ TD.error_to_string e)
  | Ok _ -> Alcotest.fail "negation was not rejected"

let test_missing_pred_rejected () =
  match
    TD.solve ~facts:(facts_of []) ~is_base ~rules:tc_rules ~goal:(A.atom "ghost" [ A.Var "X" ])
  with
  | Error (TD.Undefined "ghost") -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ TD.error_to_string e)
  | Ok _ -> Alcotest.fail "undefined predicate was not rejected"

let test_unsafe_rejected () =
  (* head variable never bound by the body *)
  let rules = List.map P.parse_clause [ "p(X, Y) :- edge(X, Z)." ] in
  match
    TD.solve ~facts:(facts_of [ (1, 2) ]) ~is_base ~rules ~goal:(A.atom "p" [ A.Var "X"; A.Var "Y" ])
  with
  | Error (TD.Unsafe _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ TD.error_to_string e)
  | Ok _ -> Alcotest.fail "unsafe rule was not rejected"

(* equivalence with the bottom-up runtime, for every evaluation strategy
   and magic mode, with the engine's invariant sanitizer on *)
let prop_matches_bottom_up =
  let gen =
    QCheck2.Gen.(
      pair (list_size (int_range 0 25) (pair (int_bound 8) (int_bound 8))) (int_bound 8))
  in
  let modes =
    let d = Core.Session.default_options in
    [
      d;
      { d with strategy = Core.Runtime.Naive };
      { d with optimize = Core.Compiler.Opt_on };
      { d with optimize = Core.Compiler.Opt_supplementary };
    ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"top-down = bottom-up on random graphs" gen
       (fun (edges, c) ->
         let top =
           solve edges (A.atom "tc" [ A.Const (V.Int c); A.Var "W" ]) |> List.map snd
         in
         let s = Core.Session.create () in
         Rdbms.Engine.set_sanitize (Core.Session.engine s) true;
         (match Workload.Queries.setup_edge s edges with
         | Ok () -> ()
         | Error e -> failwith e);
         (match Core.Session.load_rules s Workload.Queries.tc_rules with
         | Ok () -> ()
         | Error e -> failwith e);
         let bottom options =
           match Core.Session.query_goal s ~options (Workload.Queries.tc_goal_from c) with
           | Ok a ->
               List.map
                 (fun r -> match r.(0) with V.Int x -> x | _ -> -1)
                 a.Core.Session.run.Core.Runtime.rows
               |> List.sort compare
           | Error e -> failwith e
         in
         List.for_all (fun options -> top = bottom options) modes
         && Rdbms.Engine.check_invariants (Core.Session.engine s) = []))

let () =
  Alcotest.run "topdown"
    [
      ( "qsq",
        [
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "cycles terminate" `Quick test_cycle_terminates;
          Alcotest.test_case "free query" `Quick test_free_query;
          Alcotest.test_case "repeated var goal" `Quick test_repeated_var_goal;
          Alcotest.test_case "ground goal" `Quick test_ground_goal;
          Alcotest.test_case "subgoal relevance" `Quick test_subgoal_relevance;
          Alcotest.test_case "program facts" `Quick test_program_facts;
          Alcotest.test_case "negation rejected" `Quick test_negation_rejected;
          Alcotest.test_case "missing predicate" `Quick test_missing_pred_rejected;
          Alcotest.test_case "unsafe rule rejected" `Quick test_unsafe_rejected;
        ] );
      ("equivalence", [ prop_matches_bottom_up ]);
    ]
