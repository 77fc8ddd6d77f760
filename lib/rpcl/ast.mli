(** Abstract syntax for RPCL, the RPC interface-definition language of
    RFC 5531 (the input language of [rpcgen], and of Cricket's RPC-Lib
    procedural macros). *)

type position = { line : int; col : int }

val pp_position : Format.formatter -> position -> unit

(** Compile-time constant: literal or reference to a [const] definition. *)
type value = Lit of int64 | Named of string

type base_type =
  | Int
  | Uint
  | Hyper
  | Uhyper
  | Float
  | Double
  | Bool
  | Named_type of string  (** typedef/struct/enum/union reference *)

(** A declaration is a named, possibly decorated use of a type — a struct
    field, union arm, typedef body, or union discriminant. *)
type decl =
  | Void
  | Scalar of base_type * string
  | Fixed_array of base_type * string * value
  | Var_array of base_type * string * value option  (** [<>]-style, opt max *)
  | Fixed_opaque of string * value
  | Var_opaque of string * value option
  | String of string * value option
  | Optional of base_type * string  (** [type *name] *)

type enum_def = { enum_name : string; enum_items : (string * value) list }

type struct_def = { struct_name : string; struct_fields : decl list }

type union_case = { case_values : value list; case_decl : decl }

type union_def = {
  union_name : string;
  union_discriminant : decl;
  union_cases : union_case list;
  union_default : decl option;
}

type typedef_def = { typedef_decl : decl }

type procedure_def = {
  proc_name : string;
  proc_result : base_type option;  (** [None] is void *)
  proc_args : base_type list;  (** empty list is void *)
  proc_number : value;
}

type version_def = {
  version_name : string;
  version_number : value;
  version_procedures : procedure_def list;
}

type program_def = {
  program_name : string;
  program_number : value;
  program_versions : version_def list;
}

type definition =
  | Const of string * int64
  | Enum of enum_def
  | Struct of struct_def
  | Union of union_def
  | Typedef of typedef_def
  | Program of program_def

type spec = definition list

val decl_name : decl -> string option
(** The declared identifier, if any ([Void] has none). *)
