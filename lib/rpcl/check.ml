exception Semantic_error of string

let () =
  Printexc.register_printer (function
    | Semantic_error msg -> Some ("Rpcl.Check.Semantic_error: " ^ msg)
    | _ -> None)

let fail fmt = Format.kasprintf (fun msg -> raise (Semantic_error msg)) fmt

type env = {
  spec : Ast.spec;
  consts : (string, int64) Hashtbl.t;
  types : (string, Ast.definition) Hashtbl.t;
  programs : Ast.program_def list;
}

let spec env = env.spec

let resolve env = function
  | Ast.Lit n -> n
  | Ast.Named name -> (
      match Hashtbl.find_opt env.consts name with
      | Some v -> v
      | None -> fail "unknown constant %s" name)

let find_type env name = Hashtbl.find_opt env.types name
let programs env = env.programs

let type_name_of_def = function
  | Ast.Enum e -> Some e.Ast.enum_name
  | Ast.Struct s -> Some s.Ast.struct_name
  | Ast.Union u -> Some u.Ast.union_name
  | Ast.Typedef t -> Ast.decl_name t.Ast.typedef_decl
  | Ast.Const _ | Ast.Program _ -> None

let add_const env name v =
  if Hashtbl.mem env.consts name then fail "duplicate constant %s" name;
  Hashtbl.add env.consts name v

let check_base_type env context = function
  | Ast.Named_type name ->
      if not (Hashtbl.mem env.types name) then
        fail "unknown type %s referenced in %s" name context
  | Ast.Int | Ast.Uint | Ast.Hyper | Ast.Uhyper | Ast.Float | Ast.Double
  | Ast.Bool ->
      ()

let check_value env context = function
  | Ast.Lit _ -> ()
  | Ast.Named name ->
      if not (Hashtbl.mem env.consts name) then
        fail "unknown constant %s referenced in %s" name context

let check_decl env context = function
  | Ast.Void -> ()
  | Ast.Scalar (ty, _) | Ast.Optional (ty, _) -> check_base_type env context ty
  | Ast.Fixed_array (ty, _, v) ->
      check_base_type env context ty;
      check_value env context v
  | Ast.Var_array (ty, _, v) ->
      check_base_type env context ty;
      Option.iter (check_value env context) v
  | Ast.Fixed_opaque (_, v) -> check_value env context v
  | Ast.Var_opaque (_, v) | Ast.String (_, v) ->
      Option.iter (check_value env context) v

let check_unique what items =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun key ->
      if Hashtbl.mem seen key then fail "duplicate %s %s" what key;
      Hashtbl.add seen key ())
    items

let check spec =
  let env =
    { spec; consts = Hashtbl.create 64; types = Hashtbl.create 64;
      programs = [] }
  in
  (* pass 1: collect names so forward references work *)
  List.iter
    (fun def ->
      (match def with
      | Ast.Const (name, v) -> add_const env name v
      | Ast.Enum e ->
          List.iter
            (fun (item, v) ->
              match v with
              | Ast.Lit n -> add_const env item n
              | Ast.Named other -> (
                  match Hashtbl.find_opt env.consts other with
                  | Some n -> add_const env item n
                  | None ->
                      fail "enum %s item %s references unknown constant %s"
                        e.Ast.enum_name item other))
            e.Ast.enum_items
      | Ast.Struct _ | Ast.Union _ | Ast.Typedef _ | Ast.Program _ -> ());
      match type_name_of_def def with
      | Some name ->
          if Hashtbl.mem env.types name then fail "duplicate type %s" name;
          Hashtbl.add env.types name def
      | None -> ())
    spec;
  (* pass 2: validate bodies *)
  List.iter
    (fun def ->
      match def with
      | Ast.Const _ -> ()
      | Ast.Enum e ->
          check_unique ("item in enum " ^ e.Ast.enum_name)
            (List.map fst e.Ast.enum_items)
      | Ast.Struct s ->
          let context = "struct " ^ s.Ast.struct_name in
          if s.Ast.struct_fields = [] then fail "%s has no fields" context;
          check_unique ("field in " ^ context)
            (List.filter_map Ast.decl_name s.Ast.struct_fields);
          List.iter (check_decl env context) s.Ast.struct_fields
      | Ast.Union u ->
          let context = "union " ^ u.Ast.union_name in
          check_decl env context u.Ast.union_discriminant;
          (match u.Ast.union_discriminant with
          | Ast.Scalar ((Ast.Int | Ast.Uint | Ast.Bool), _) -> ()
          | Ast.Scalar (Ast.Named_type name, _) -> (
              match find_type env name with
              | Some (Ast.Enum _) -> ()
              | _ ->
                  fail "%s: discriminant type %s is not an enum" context name)
          | _ -> fail "%s: discriminant must be int, unsigned, bool or enum" context);
          List.iter
            (fun c ->
              List.iter (check_value env context) c.Ast.case_values;
              check_decl env context c.Ast.case_decl)
            u.Ast.union_cases;
          Option.iter (check_decl env context) u.Ast.union_default;
          check_unique ("case value in " ^ context)
            (List.concat_map
               (fun c ->
                 List.map
                   (fun v -> Int64.to_string (resolve env v))
                   c.Ast.case_values)
               u.Ast.union_cases)
      | Ast.Typedef t -> (
          check_decl env "typedef" t.Ast.typedef_decl;
          match t.Ast.typedef_decl with
          | Ast.Void -> fail "typedef of void"
          | _ -> ())
      | Ast.Program p ->
          let context = "program " ^ p.Ast.program_name in
          check_unique ("version number in " ^ context)
            (List.map
               (fun v -> Int64.to_string (resolve env v.Ast.version_number))
               p.Ast.program_versions);
          List.iter
            (fun v ->
              let vcontext =
                Printf.sprintf "%s version %s" context v.Ast.version_name
              in
              check_unique ("procedure number in " ^ vcontext)
                (List.map
                   (fun pr -> Int64.to_string (resolve env pr.Ast.proc_number))
                   v.Ast.version_procedures);
              check_unique ("procedure name in " ^ vcontext)
                (List.map (fun pr -> pr.Ast.proc_name) v.Ast.version_procedures);
              List.iter
                (fun pr ->
                  Option.iter (check_base_type env vcontext) pr.Ast.proc_result;
                  List.iter (check_base_type env vcontext) pr.Ast.proc_args;
                  check_value env vcontext pr.Ast.proc_number)
                v.Ast.version_procedures)
            p.Ast.program_versions)
    spec;
  let programs =
    List.filter_map (function Ast.Program p -> Some p | _ -> None) spec
  in
  check_unique "program number"
    (List.map
       (fun p ->
         Int64.to_string
           (resolve { env with programs = [] } p.Ast.program_number))
       programs);
  { env with programs }
