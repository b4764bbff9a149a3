type t = int array

type order = Equal | Less | Greater | Concurrent

(* Every kernel below is annotated at [t]: without flambda, [<=] on an
   unannotated (hence polymorphic) array element is a C call to the
   generic comparison, once per component. *)

let create n =
  if n <= 0 then invalid_arg "Vclock.create: n <= 0";
  Array.make n 0

let size ~c = Array.length c

let copy = Array.copy

let get (c : t) i = c.(i)

let set (c : t) i v = c.(i) <- v

let tick c i =
  c.(i) <- c.(i) + 1;
  c.(i)

let join (dst : t) (src : t) =
  if Array.length dst <> Array.length src then
    invalid_arg "Vclock.join: size mismatch";
  for i = 0 to Array.length dst - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

let joined a b =
  let c = copy a in
  join c b;
  c

let leq (a : t) (b : t) =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Vclock.leq: size mismatch";
  let i = ref 0 in
  while !i < n && a.(!i) <= b.(!i) do
    incr i
  done;
  !i = n

let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n

(* One pass: every component [<=], at least one [<].  A size mismatch
   raises [leq]'s error, as [leq a b && not (equal a b)] would. *)
let lt (a : t) (b : t) =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Vclock.leq: size mismatch";
  let i = ref 0 and strict = ref false in
  while !i < n && a.(!i) <= b.(!i) do
    if a.(!i) < b.(!i) then strict := true;
    incr i
  done;
  !i = n && !strict

let compare_partial a b =
  let le = leq a b and ge = leq b a in
  match le, ge with
  | true, true -> Equal
  | true, false -> Less
  | false, true -> Greater
  | false, false -> Concurrent

let min_into (dst : t) (src : t) =
  if Array.length dst <> Array.length src then
    invalid_arg "Vclock.min_into: size mismatch";
  for i = 0 to Array.length dst - 1 do
    if src.(i) < dst.(i) then dst.(i) <- src.(i)
  done

let fold f acc (c : t) = Array.fold_left f acc c

let to_list = Array.to_list

let of_list = function
  | [] -> invalid_arg "Vclock.of_list: empty"
  | l -> Array.of_list l

let pp ppf c =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list c)
