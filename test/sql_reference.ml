(* A reference evaluator for the engine's SQL subset, working straight
   from the parsed statement: nested loops over FROM, WHERE as a row
   filter (NOT EXISTS as a correlated loop), and GROUP BY, aggregates and
   the set operations from their definitions. Base rows are read with
   Relation.to_list from the catalog, never through a SELECT, and nothing
   here touches the planner, the cost model or the executor, so a bug in
   any of them shows up as a disagreement.

   Results are multisets: row order is unspecified except where ORDER BY
   fixes it, and [select] returns rows stably sorted by the ORDER BY keys.
   Semantics follow the engine's NULL-free SQL: on empty input, an
   ungrouped aggregate yields one row of zeros when every output is a
   count and no row otherwise. *)

open Rdbms
module A = Sql_ast

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt
let lc = String.lowercase_ascii

(* One FROM item bound to one of its rows. *)
type binding = {
  alias : string;
  columns : string list;
  row : Tuple.t;
}

let relation catalog name =
  match Catalog.find_table catalog name with
  | Some tbl -> tbl.Catalog.tbl_relation
  | None -> unsupported "no such table: %s" name

let bindings catalog (f : A.from_item) =
  let rel = relation catalog f.A.table in
  let alias = lc (Option.value f.A.alias ~default:f.A.table) in
  let columns = List.map lc (Schema.names (Relation.schema rel)) in
  List.map (fun row -> { alias; columns; row }) (Relation.to_list rel)

(* Every combination of one row per FROM item, in FROM order. *)
let rec cross catalog = function
  | [] -> [ [] ]
  | f :: rest ->
      let tails = cross catalog rest in
      List.concat_map (fun b -> List.map (fun tail -> b :: tail) tails) (bindings catalog f)

let rec index_of x i = function
  | [] -> None
  | y :: ys -> if String.equal x y then Some i else index_of x (i + 1) ys

(* A column is qualified by its FROM alias, or unqualified and unique. *)
let lookup env (c : A.column_ref) =
  let column = lc c.A.column in
  let hits =
    List.filter_map
      (fun b ->
        match c.A.qualifier with
        | Some q when lc q <> b.alias -> None
        | _ -> Option.map (fun i -> b.row.(i)) (index_of column 0 b.columns))
      env
  in
  match hits with
  | [ v ] -> v
  | [] -> unsupported "unknown column %s" column
  | _ -> unsupported "ambiguous column %s" column

let literal = function
  | A.L_int n -> Value.Int n
  | A.L_str s -> Value.Str s

let scalar env = function
  | A.Col c -> lookup env c
  | A.Lit l -> literal l

let satisfies op c =
  match op with
  | A.Eq -> c = 0
  | A.Neq -> c <> 0
  | A.Lt -> c < 0
  | A.Le -> c <= 0
  | A.Gt -> c > 0
  | A.Ge -> c >= 0

let rec holds catalog env = function
  | A.Cmp (a, op, b) -> satisfies op (Value.compare (scalar env a) (scalar env b))
  | A.And (a, b) -> holds catalog env a && holds catalog env b
  | A.Or (a, b) -> holds catalog env a || holds catalog env b
  | A.Not c -> not (holds catalog env c)
  | A.Not_exists core ->
      let matches inner = where_holds catalog (env @ inner) core.A.where in
      not (List.exists matches (cross catalog core.A.from))

and where_holds catalog env = function
  | None -> true
  | Some c -> holds catalog env c

let compare_rows a b =
  let n = Array.length a in
  let rec go i =
    if i = n then 0 else match Value.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
  in
  if n <> Array.length b then compare n (Array.length b) else go 0

let distinct rows = List.sort_uniq compare_rows rows
let mem row rows = List.exists (fun r -> compare_rows r row = 0) rows

(* Group [envs] by the GROUP BY key, then fold each group into one row. *)
let aggregate envs (core : A.select_core) =
  let is_count = function A.Sel_count_star _ | A.Sel_agg (A.Agg_count, _, _) -> true | _ -> false in
  let fold group =
    let column s = List.map (fun env -> scalar env s) group in
    let extreme keep vs =
      List.fold_left (fun a v -> if keep (Value.compare v a) then v else a) (List.hd vs) vs
    in
    let sum = List.fold_left (fun acc v -> match v with Value.Int n -> acc + n | _ -> acc) 0 in
    Array.of_list
      (List.map
         (function
           | A.Sel_expr (s, _) -> scalar (List.hd group) s
           | A.Sel_count_star _ | A.Sel_agg (A.Agg_count, _, _) -> Value.Int (List.length group)
           | A.Sel_agg (A.Agg_sum, s, _) -> Value.Int (sum (column s))
           | A.Sel_agg (A.Agg_min, s, _) -> extreme (fun c -> c < 0) (column s)
           | A.Sel_agg (A.Agg_max, s, _) -> extreme (fun c -> c > 0) (column s)
           | A.Sel_star -> unsupported "SELECT * with aggregates")
         core.A.items)
  in
  if core.A.group_by = [] then
    if envs <> [] then [ fold envs ]
    else if List.for_all is_count core.A.items then
      [ Array.of_list (List.map (fun _ -> Value.Int 0) core.A.items) ]
    else []
  else
    let key env = List.map (lookup env) core.A.group_by in
    let keys = List.sort_uniq (List.compare Value.compare) (List.map key envs) in
    List.map
      (fun k -> fold (List.filter (fun env -> List.compare Value.compare (key env) k = 0) envs))
      keys

let project env items =
  Array.concat
    (List.map
       (function
         | A.Sel_star -> Array.concat (List.map (fun b -> b.row) env)
         | A.Sel_expr (s, _) -> [| scalar env s |]
         | A.Sel_count_star _ | A.Sel_agg _ -> unsupported "aggregate outside an aggregate query")
       items)

let select_core catalog (core : A.select_core) =
  let envs =
    List.filter (fun env -> where_holds catalog env core.A.where) (cross catalog core.A.from)
  in
  let grouped =
    core.A.group_by <> []
    || List.exists (function A.Sel_count_star _ | A.Sel_agg _ -> true | _ -> false) core.A.items
  in
  let rows =
    if grouped then aggregate envs core else List.map (fun env -> project env core.A.items) envs
  in
  if core.A.distinct then distinct rows else rows

let rec query catalog = function
  | A.Q_select core -> select_core catalog core
  | A.Q_union (a, b) -> distinct (query catalog a @ query catalog b)
  | A.Q_union_all (a, b) -> query catalog a @ query catalog b
  | A.Q_except (a, b) ->
      let excluded = query catalog b in
      List.filter (fun r -> not (mem r excluded)) (distinct (query catalog a))

(* Output column names of a query: those of its leftmost SELECT. *)
let rec output_names catalog = function
  | A.Q_union (a, _) | A.Q_union_all (a, _) | A.Q_except (a, _) -> output_names catalog a
  | A.Q_select core ->
      List.concat_map
        (function
          | A.Sel_star ->
              List.concat_map
                (fun (f : A.from_item) ->
                  List.map lc (Schema.names (Relation.schema (relation catalog f.A.table))))
                core.A.from
          | A.Sel_expr (_, Some a) | A.Sel_count_star (Some a) | A.Sel_agg (_, _, Some a) ->
              [ lc a ]
          | A.Sel_expr (A.Col c, None) -> [ lc c.A.column ]
          | A.Sel_expr (A.Lit _, None) | A.Sel_count_star None | A.Sel_agg (_, _, None) -> [ "" ])
        core.A.items

(* ORDER BY keys as (position, descending). *)
let order_keys catalog q order_by =
  let names = output_names catalog q in
  List.map
    (fun { A.target; descending } ->
      match target with
      | `Position i -> (i - 1, descending)
      | `Name n -> (
          match index_of (lc n) 0 names with
          | Some i -> (i, descending)
          | None -> unsupported "ORDER BY: unknown column %s" n))
    order_by

let compare_on keys a b =
  List.fold_left
    (fun c (i, desc) ->
      if c <> 0 then c else if desc then Value.compare b.(i) a.(i) else Value.compare a.(i) b.(i))
    0 keys

let select catalog q order_by =
  let keys = order_keys catalog q order_by in
  List.stable_sort (compare_on keys) (query catalog q)

(* ------------------------------------------------------------------ *)
(* Data modification: the table a statement leaves behind (as a sorted
   set, since relations hold no duplicates) and its affected-row count. *)

let contents catalog table = distinct (Relation.to_list (relation catalog table))

let table_env catalog table row =
  let rel = relation catalog table in
  [ { alias = lc table; columns = List.map lc (Schema.names (Relation.schema rel)); row } ]

let matches catalog table where row = where_holds catalog (table_env catalog table row) where

(* the distinct rows of [q] that [table] does not hold yet *)
let new_rows catalog table q =
  let before = contents catalog table in
  List.filter (fun r -> not (mem r before)) (distinct (query catalog q))

let insert_select catalog table q =
  let added = new_rows catalog table q in
  (distinct (contents catalog table @ added), List.length added)

(* INSERT INTO table NEW INTO d: [d] also receives the rows new to
   [table]; this is [d]'s contents afterwards. *)
let new_into catalog table d q = distinct (contents catalog d @ new_rows catalog table q)

let delete catalog table where =
  let doomed, kept = List.partition (matches catalog table where) (contents catalog table) in
  (kept, List.length doomed)

(* Every assignment reads the old row; the new table is the unchanged
   rows plus the images of the matched ones. *)
let update catalog table sets where =
  let before = contents catalog table in
  let schema = Relation.schema (relation catalog table) in
  let image row =
    let env = table_env catalog table row in
    let fresh = Array.copy row in
    List.iter (fun (col, s) -> fresh.(Schema.position_exn schema col) <- scalar env s) sets;
    fresh
  in
  let matched, kept = List.partition (matches catalog table where) before in
  let changed = List.filter (fun r -> compare_rows (image r) r <> 0) matched in
  (distinct (kept @ List.map image matched), List.length changed)
