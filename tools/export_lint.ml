(* Unused-export lint: every [val] of a [lib/] interface must be named by
   some [.ml] under lib, bin, bench, examples or test other than its own
   module's. A file names [M.v] when it writes [v] behind a module path
   that resolves to [M] — spelled from the library (Oncrpc.Server.v),
   from inside the same library (Server.v), through an [open], [include]
   or local open of a path holding [M], or through a module alias of
   [M] — or writes [v] bare after an [open], [include] or local open of
   [M] itself. Opens are taken to last to the end of the file.

   Prints each export that no file names, as [<mli>: <Lib.Module.v>],
   and exits 1 if there is one. Run from the repository root:
   [dune exec tools/export_lint.exe]. *)

type token =
  | Path of string list
      (** [A.B.c]: uppercase components, maybe a last lowercase one *)
  | Sym of string  (** an operator run, one other character, or [".("] *)

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''
let is_upper s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'
let is_op_char c = String.contains "!$%&*+-./:<=>?@^|~" c

(* Past a ['c'] or ['\n'] character literal at [i], if there is one. *)
let char_literal s i =
  let n = String.length s in
  if i + 2 < n && s.[i + 1] <> '\\' && s.[i + 2] = '\'' then Some (i + 3)
  else if i + 1 < n && s.[i + 1] = '\\' then
    match String.index_from_opt s (i + 2) '\'' with
    | Some j -> Some (j + 1)
    | None -> None
  else None

(* Past the string literal whose opening quote is at [i]. *)
let rec skip_string s i =
  if i >= String.length s then i
  else
    match s.[i] with
    | '\\' -> skip_string s (i + 2)
    | '"' -> i + 1
    | _ -> skip_string s (i + 1)

(* Past a [{id|...|id}] quoted string at [i], if one starts there. *)
let quoted_string s i =
  let n = String.length s in
  let j = ref (i + 1) in
  while !j < n && (s.[!j] = '_' || (s.[!j] >= 'a' && s.[!j] <= 'z')) do
    incr j
  done;
  if !j < n && s.[!j] = '|' then
    let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
    let rec find k =
      if k + String.length close > n then n
      else if String.sub s k (String.length close) = close then
        k + String.length close
      else find (k + 1)
    in
    Some (find (!j + 1))
  else None

(* Past the comment that opens at [i], nested comments and the string and
   character literals inside included, as the compiler reads them. *)
let skip_comment s i =
  let n = String.length s in
  let rec go i depth =
    if i >= n then n
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then
      go (i + 2) (depth + 1)
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else go (i + 2) (depth - 1)
    else
      match s.[i] with
      | '"' -> go (skip_string s (i + 1)) depth
      | '\'' -> (
          match char_literal s i with
          | Some j -> go j depth
          | None -> go (i + 1) depth)
      | '{' -> (
          match quoted_string s i with
          | Some j -> go j depth
          | None -> go (i + 1) depth)
      | _ -> go (i + 1) depth
  in
  go i 0

let rec tokens s =
  let n = String.length s in
  let acc = ref [] in
  let emit t = acc := t :: !acc in
  let rec go i =
    if i >= n then ()
    else
      let c = s.[i] in
      if c = '(' && i + 1 < n && s.[i + 1] = '*' then go (skip_comment s i)
      else if c = '"' then literal i (skip_string s (i + 1))
      else if c = '{' then (
        match quoted_string s i with
        | Some j -> literal i j
        | None ->
            emit (Sym "{");
            go (i + 1))
      else if c = '\'' then (
        match char_literal s i with
        | Some j -> go j
        | None -> go (i + 1))
      else if c >= '0' && c <= '9' then begin
        let j = ref i in
        while !j < n && (is_ident_char s.[!j] || s.[!j] = '.') do incr j done;
        go !j
      end
      else if is_ident_start c then path i []
      else if is_op_char c then begin
        let j = ref i in
        while !j < n && is_op_char s.[!j] do incr j done;
        emit (Sym (String.sub s i (!j - i)));
        go !j
      end
      else begin
        if c > ' ' then emit (Sym (String.make 1 c));
        go (i + 1)
      end
  (* A string literal names the qualified paths it spells out, the way
     the RPCL code generator's templates name the Xdr functions that the
     generated stubs call; nothing else in it counts. *)
  and literal i j =
    List.iter
      (function Path (_ :: _ :: _) as p -> emit p | Path _ | Sym _ -> ())
      (tokens (String.sub s (i + 1) (max 0 (j - i - 2))));
    go j
  (* One path: components joined by dots, continued only behind an
     uppercase one; [M.(], [M.\[] and [M.{] end it with a local open. *)
  and path i comps =
    let j = ref i in
    while !j < n && is_ident_char s.[!j] do incr j done;
    let comp = String.sub s i (!j - i) in
    let comps = comp :: comps in
    let j = !j in
    if is_upper comp && j + 1 < n && s.[j] = '.' then
      if is_ident_start s.[j + 1] then path (j + 1) comps
      else if String.contains "([{" s.[j + 1] then begin
        emit (Path (List.rev comps));
        emit (Sym ".(");
        go (j + 2)
      end
      else begin
        emit (Path (List.rev comps));
        go j
      end
    else begin
      emit (Path (List.rev comps));
      go j
    end
  in
  go 0;
  List.rev !acc

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec files dir ext =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let p = Filename.concat dir name in
         if Sys.is_directory p then
           if name.[0] = '_' || name.[0] = '.' then [] else files p ext
         else if Filename.check_suffix name ext then [ p ]
         else [])

(* The library and module a [lib/<lib>/<m>.ml(i)] file defines. *)
let lib_module path =
  match String.split_on_char '/' path with
  | [ "lib"; lib; file ] ->
      Some
        ( String.capitalize_ascii lib,
          String.capitalize_ascii (Filename.remove_extension file) )
  | _ -> None

(* The [val]s of an interface, each under its module path: those of a
   [module X : sig ... end] under [X]; none of a module type's. *)
let exports ~modul toks =
  let out = ref [] in
  let rec go stack = function
    | Path [ "module" ] :: Path [ x ] :: Sym ":" :: Path [ "sig" ] :: rest ->
        go (Some x :: stack) rest
    | Path [ ("sig" | "object") ] :: rest ->
        go (None :: stack) rest
    | Path [ "end" ] :: rest ->
        go (match stack with [] -> [] | _ :: s -> s) rest
    | Path [ "val" ] :: Path [ v ] :: rest when not (is_upper v) ->
        if List.for_all Option.is_some stack then
          out :=
            (String.concat "." (modul :: List.rev_map Option.get stack), v)
            :: !out;
        go stack rest
    | _ :: rest -> go stack rest
    | [] -> ()
  in
  go [] toks;
  List.rev !out

let () =
  let interfaces = files "lib" ".mli" in
  let known = Hashtbl.create 256 in
  let exported =
    List.concat_map
      (fun mli ->
        let lib, m = Option.get (lib_module mli) in
        Hashtbl.replace known lib ();
        let modul = lib ^ "." ^ m in
        let vals = exports ~modul (tokens (read_file mli)) in
        List.iter (fun (p, _) -> Hashtbl.replace known p ()) vals;
        Hashtbl.replace known modul ();
        List.map (fun (p, v) -> (mli, p, v)) vals)
      interfaces
  in
  let named = Hashtbl.create 4096 in
  let scan file =
    let lib, own =
      match lib_module file with
      | Some (lib, m) -> (Some lib, lib ^ "." ^ m)
      | None -> (None, "")
    in
    let opens = ref [] and aliases = ref [] in
    let resolve comps =
      let joined = String.concat "." comps in
      let candidates =
        (match comps with
        | head :: rest when List.mem_assoc head !aliases ->
            [ String.concat "." (List.assoc head !aliases :: rest) ]
        | _ -> [])
        @ [ joined ]
        @ (match lib with Some l -> [ l ^ "." ^ joined ] | None -> [])
        @ List.map (fun o -> o ^ "." ^ joined) !opens
      in
      List.find_opt (Hashtbl.mem known) candidates
    in
    let mark m v =
      if m <> own && not (String.starts_with ~prefix:(own ^ ".") m) then
        Hashtbl.replace named (m, v) ()
    in
    let open_ comps =
      match resolve comps with Some m -> opens := m :: !opens | None -> ()
    in
    let rec go = function
      | Path [ ("open" | "include") ] :: Sym "!" :: Path p :: rest
      | Path [ ("open" | "include") ] :: Path p :: rest
        when List.for_all is_upper p ->
          open_ p;
          go rest
      | Path [ "module" ] :: Path [ a ] :: Sym "=" :: Path p :: rest
        when List.for_all is_upper p ->
          (match resolve p with
          | Some m -> aliases := (a, m) :: !aliases
          | None -> ());
          go rest
      | Path p :: Sym ".(" :: rest ->
          open_ p;
          go rest
      | Path [ v ] :: rest ->
          if not (is_upper v) then List.iter (fun m -> mark m v) !opens;
          go rest
      | Path p :: rest ->
          let rev = List.rev p in
          let v = List.hd rev in
          (if not (is_upper v) then
             match resolve (List.rev (List.tl rev)) with
             | Some m -> mark m v
             | None -> ());
          go rest
      | Sym _ :: rest -> go rest
      | [] -> ()
    in
    go (tokens (read_file file))
  in
  List.iter
    (fun dir -> List.iter scan (files dir ".ml"))
    [ "lib"; "bin"; "bench"; "examples"; "test" ];
  let unnamed =
    List.filter (fun (_, m, v) -> not (Hashtbl.mem named (m, v))) exported
  in
  List.iter (fun (mli, m, v) -> Printf.printf "%s: %s.%s\n" mli m v) unnamed;
  if unnamed <> [] then exit 1
