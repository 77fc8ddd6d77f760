(** Semantic analysis for parsed RPCL specifications.

    Validates name resolution and uniqueness rules, and produces an
    environment the code generator consumes:
    - constant names resolve (and are acyclic, since [const] only accepts
      literals);
    - every referenced type name is defined exactly once;
    - enum item names are unique across the spec (they live in a flat
      namespace, as in C);
    - procedure numbers are unique within a version, version numbers within
      a program, and program numbers across the spec. *)

exception Semantic_error of string

type env

val check : Ast.spec -> env
(** Raises {!Semantic_error} on the first violated rule. *)

val spec : env -> Ast.spec

val resolve : env -> Ast.value -> int64
(** Resolve a literal or named constant. *)

val find_type : env -> string -> Ast.definition option
(** Look up an [Enum]/[Struct]/[Union]/[Typedef] by declared name. *)

val programs : env -> Ast.program_def list
