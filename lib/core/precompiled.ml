module Ast = Datalog.Ast

type entry = {
  mutable compiled : Compiler.compiled;
  mutable epoch : int;
  depends : string list;
}

type t = {
  entries : (string, entry) Hashtbl.t;
  mutable invalidated : int;
}

type outcome =
  | Hit
  | Miss
  | Invalidated

let create () = { entries = Hashtbl.create 16; invalidated = 0 }

let size t = Hashtbl.length t.entries
let clear t = Hashtbl.reset t.entries
let invalidations t = t.invalidated

let opt_key = function
  | Compiler.Opt_off -> "off"
  | Compiler.Opt_on -> "on"
  | Compiler.Opt_supplementary -> "sup"
  | Compiler.Opt_auto -> "auto"

let key goal options = Ast.atom_to_string goal ^ "#" ^ opt_key options.Session.optimize

(* every predicate the compiled program's correctness rests on *)
let dependencies (compiled : Compiler.compiled) =
  List.sort_uniq String.compare
    (compiled.Compiler.original_goal.Ast.pred
    :: List.concat_map
         (fun c -> Ast.head_pred c :: List.map fst (Ast.body_preds c))
         compiled.Compiler.original_clauses)

let compile_fresh session options goal =
  Compiler.compile ~stored:(Session.stored session) ~workspace:(Session.workspace session)
    ~optimize:options.Session.optimize ~goal ()

let execute session options (compiled : Compiler.compiled) =
  match
    Runtime.execute (Session.engine session) ~strategy:options.Session.strategy
      ~paper_loop:options.Session.paper_loop ~index_derived:options.Session.index_derived
      compiled.Compiler.program
  with
  | run ->
      Ok
        {
          Session.compiled;
          run;
          total_ms = compiled.Compiler.compile_ms +. run.Runtime.exec_ms;
        }
  | exception Rdbms.Engine.Sql_error msg -> Error ("DBMS error during execution: " ^ msg)
  | exception Failure msg -> Error msg

let query t session ?(options = Session.default_options) goal =
  let k = key goal options in
  let current = Session.rule_epoch session in
  let cached, was_invalidation =
    match Hashtbl.find_opt t.entries k with
    | None -> (None, false)
    | Some entry ->
        let changed = Session.changed_since session entry.epoch in
        if List.exists (fun p -> List.mem p entry.depends) changed then begin
          Hashtbl.remove t.entries k;
          t.invalidated <- t.invalidated + 1;
          (None, true)
        end
        else begin
          entry.epoch <- current;
          (Some entry, false)
        end
  in
  match cached with
  | Some entry -> (
      match execute session options entry.compiled with
      | Ok answer -> Ok (answer, Hit)
      | Error _ as e -> e)
  | None -> (
      match compile_fresh session options goal with
      | Error _ as e -> e
      | Ok compiled -> (
          Hashtbl.replace t.entries k { compiled; epoch = current; depends = dependencies compiled };
          match execute session options compiled with
          | Ok answer -> Ok (answer, if was_invalidation then Invalidated else Miss)
          | Error _ as e -> e))
