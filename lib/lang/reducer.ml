type op = Sum | Min | Max

let identity = function Sum -> 0 | Min -> max_int | Max -> min_int

let apply op a b =
  match op with Sum -> a + b | Min -> min a b | Max -> max a b

let op_name = function Sum -> "sum" | Min -> "min" | Max -> "max"

let op_of_name = function
  | "sum" -> Some Sum
  | "min" -> Some Min
  | "max" -> Some Max
  | _ -> None

type t = { op : op; mutable value : int }

let create op = { op; value = identity op }
let op t = t.op
let value t = t.value
let update t x = t.value <- apply t.op t.value x
let reset t = t.value <- identity t.op

type set = (string * t) list

let make_set decls =
  let names = List.map fst decls in
  let rec dup = function
    | [] -> None
    | n :: rest -> if List.mem n rest then Some n else dup rest
  in
  (match dup names with
  | Some n -> invalid_arg (Printf.sprintf "Reducer.make_set: duplicate reducer %S" n)
  | None -> ());
  List.map (fun (name, op) -> (name, create op)) decls

let rec find set name =
  match set with
  | [] -> raise Not_found
  | (n, r) :: rest -> if String.equal n name then r else find rest name

let reduce set name x = update (find set name) x

let values set = List.map (fun (name, r) -> (name, value r)) set

let reset_set set = List.iter (fun (_, r) -> reset r) set
