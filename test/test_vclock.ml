open Rfdet_util

let vc l = Vclock.of_list l

let test_create () =
  let c = Vclock.create 4 in
  Alcotest.(check (list int)) "zero" [ 0; 0; 0; 0 ] (Vclock.to_list c)

let test_tick () =
  let c = Vclock.create 3 in
  Alcotest.(check int) "tick returns new value" 1 (Vclock.tick c 1);
  Alcotest.(check int) "tick again" 2 (Vclock.tick c 1);
  Alcotest.(check (list int)) "components" [ 0; 2; 0 ] (Vclock.to_list c)

let test_join () =
  let a = vc [ 1; 5; 2 ] and b = vc [ 3; 1; 2 ] in
  Vclock.join a b;
  Alcotest.(check (list int)) "lub" [ 3; 5; 2 ] (Vclock.to_list a);
  Alcotest.(check (list int)) "src untouched" [ 3; 1; 2 ] (Vclock.to_list b)

let test_min_into () =
  let a = vc [ 5; 2; 7 ] in
  Vclock.min_into a (vc [ 3; 4; 7 ]);
  Alcotest.(check (list int)) "glb" [ 3; 2; 7 ] (Vclock.to_list a)

let test_size_mismatch () =
  Alcotest.check_raises "join mismatch"
    (Invalid_argument "Vclock.join: size mismatch") (fun () ->
      Vclock.join (Vclock.create 2) (Vclock.create 3))

(* qcheck generators *)

let gen_clock n =
  QCheck2.Gen.(map Vclock.of_list (list_size (return n) (int_bound 8)))

let prop_join_upper_bound =
  QCheck2.Test.make ~name:"vclock: join is an upper bound" ~count:300
    QCheck2.Gen.(pair (gen_clock 4) (gen_clock 4))
    (fun (a, b) ->
      let j = Vclock.joined a b in
      Vclock.leq a j && Vclock.leq b j)

let prop_join_least =
  QCheck2.Test.make ~name:"vclock: join is the least upper bound" ~count:300
    QCheck2.Gen.(triple (gen_clock 4) (gen_clock 4) (gen_clock 4))
    (fun (a, b, c) ->
      let j = Vclock.joined a b in
      if Vclock.leq a c && Vclock.leq b c then Vclock.leq j c else true)

let prop_join_commutative =
  QCheck2.Test.make ~name:"vclock: join commutative" ~count:300
    QCheck2.Gen.(pair (gen_clock 4) (gen_clock 4))
    (fun (a, b) -> Vclock.equal (Vclock.joined a b) (Vclock.joined b a))

let prop_join_associative =
  QCheck2.Test.make ~name:"vclock: join associative" ~count:300
    QCheck2.Gen.(triple (gen_clock 4) (gen_clock 4) (gen_clock 4))
    (fun (a, b, c) ->
      Vclock.equal
        (Vclock.joined (Vclock.joined a b) c)
        (Vclock.joined a (Vclock.joined b c)))

let prop_leq_antisym =
  QCheck2.Test.make ~name:"vclock: leq antisymmetric" ~count:300
    QCheck2.Gen.(pair (gen_clock 4) (gen_clock 4))
    (fun (a, b) ->
      if Vclock.leq a b && Vclock.leq b a then Vclock.equal a b else true)

let prop_leq_transitive =
  QCheck2.Test.make ~name:"vclock: leq transitive" ~count:300
    QCheck2.Gen.(triple (gen_clock 3) (gen_clock 3) (gen_clock 3))
    (fun (a, b, c) ->
      if Vclock.leq a b && Vclock.leq b c then Vclock.leq a c else true)

let prop_partial_consistent =
  QCheck2.Test.make ~name:"vclock: compare_partial agrees with leq" ~count:300
    QCheck2.Gen.(pair (gen_clock 4) (gen_clock 4))
    (fun (a, b) ->
      match Vclock.compare_partial a b with
      | Vclock.Equal -> Vclock.equal a b
      | Less -> Vclock.lt a b
      | Greater -> Vclock.lt b a
      | Concurrent -> (not (Vclock.leq a b)) && not (Vclock.leq b a))

let prop_lt_irreflexive_strict =
  QCheck2.Test.make ~name:"vclock: lt is the strict part of leq" ~count:300
    QCheck2.Gen.(pair (gen_clock 4) (gen_clock 4))
    (fun (a, b) ->
      (not (Vclock.lt a a))
      && Vclock.lt a b = (Vclock.leq a b && not (Vclock.equal a b)))

(* --- the Figure-5 propagation filters --------------------------------

   At an acquire, a slice with timestamp [s] is propagated iff
   [lt s upper && not (lt s lower)]: the upper limit admits only what
   happens-before the acquired position, and the lower limit drops what
   the acquirer has already merged.  These properties pin down why that
   filter pair is safe: it is monotone (growing limits never flip an
   earlier decision the wrong way), causally closed (an admitted
   slice's predecessors are admitted), and self-limiting (once a slice
   is admitted, the acquirer's joined time blocks it forever — the
   never-propagate-twice guarantee the metadata GC relies on). *)

let passes ~upper ~lower s = Vclock.lt s upper && not (Vclock.lt s lower)

let prop_filter_upper_monotone =
  QCheck2.Test.make
    ~name:"figure5: enlarging the upper limit only admits more" ~count:500
    QCheck2.Gen.(triple (gen_clock 4) (gen_clock 4) (pair (gen_clock 4) (gen_clock 4)))
    (fun (s, lower, (u, d)) ->
      let u' = Vclock.joined u d in
      if passes ~upper:u ~lower s then passes ~upper:u' ~lower s else true)

let prop_filter_lower_monotone =
  QCheck2.Test.make
    ~name:"figure5: a slice redundant under a lower limit stays redundant"
    ~count:500
    QCheck2.Gen.(triple (gen_clock 4) (gen_clock 4) (gen_clock 4))
    (fun (s, l, d) ->
      let l' = Vclock.joined l d in
      if Vclock.lt s l then Vclock.lt s l' else true)

let prop_filter_transitive =
  QCheck2.Test.make
    ~name:"figure5: admission is causally closed (lt transitive)" ~count:500
    QCheck2.Gen.(triple (gen_clock 4) (gen_clock 4) (gen_clock 4))
    (fun (s1, s2, upper) ->
      if Vclock.lt s1 s2 && Vclock.lt s2 upper then Vclock.lt s1 upper
      else true)

let prop_filter_never_twice =
  QCheck2.Test.make
    ~name:"figure5: an admitted slice can never be admitted again"
    ~count:500
    QCheck2.Gen.(
      triple (gen_clock 4) (pair (gen_clock 4) (gen_clock 4)) (gen_clock 4))
    (fun (s, (release, lower), next_upper) ->
      if passes ~upper:release ~lower s then
        (* after the acquire the thread's time includes the release time *)
        let lower' = Vclock.joined lower release in
        not (passes ~upper:next_upper ~lower:lower' s)
      else true)

(* --- the monomorphic comparison kernels ---------------------------------

   [leq], [lt], [equal], [join] and [min_into] are hand-written loops at
   [int]; a list-based reference pins their meaning at every width a run
   uses, including the clocks that stress an early exit: equal ones, and
   ones that differ only in the first or only in the last component. *)

let ref_leq a b = List.for_all2 ( <= ) a b
let ref_lt a b = ref_leq a b && List.exists2 ( < ) a b
let ref_join a b = List.map2 max a b
let ref_min a b = List.map2 min a b

(* A pair of clocks of one width in 1..64: unrelated, equal, or equal
   but for index 0 or the last index (63 at width 64), moved either way. *)
let gen_kernel_pair =
  let open QCheck2.Gen in
  let* n = oneof [ int_range 1 64; return 64 ] in
  let* a = list_size (return n) (int_bound 6) in
  let bump i d = List.mapi (fun j x -> if j = i then x + d else x) a in
  let* b =
    oneof
      [
        list_size (return n) (int_bound 6);
        return a;
        map (bump 0) (oneofl [ -1; 1 ]);
        map (bump (n - 1)) (oneofl [ -1; 1 ]);
      ]
  in
  return (a, b)

let prop_kernels_match_reference =
  QCheck2.Test.make ~name:"vclock: kernels match a list reference (widths 1-64)"
    ~count:1000
    ~print:(fun (a, b) ->
      let p l = String.concat "," (List.map string_of_int l) in
      Printf.sprintf "<%s> <%s>" (p a) (p b))
    gen_kernel_pair
    (fun (a, b) ->
      let ca = vc a and cb = vc b in
      let j = Vclock.copy ca and m = Vclock.copy ca in
      Vclock.join j cb;
      Vclock.min_into m cb;
      Vclock.leq ca cb = ref_leq a b
      && Vclock.lt ca cb = ref_lt a b
      && Vclock.equal ca cb = (a = b)
      && Vclock.to_list j = ref_join a b
      && Vclock.to_list m = ref_min a b)

let test_kernels_edge_indices () =
  let base = List.init 64 (fun i -> i mod 5) in
  let at i d = vc (List.mapi (fun j x -> if j = i then x + d else x) base) in
  let c = vc base in
  List.iter
    (fun i ->
      let name what = Printf.sprintf "index %d: %s" i what in
      let up = at i 1 in
      Alcotest.(check bool) (name "leq") true (Vclock.leq c up);
      Alcotest.(check bool) (name "lt") true (Vclock.lt c up);
      Alcotest.(check bool) (name "not lt back") false (Vclock.lt up c);
      Alcotest.(check bool) (name "not leq back") false (Vclock.leq up c);
      Alcotest.(check bool) (name "not equal") false (Vclock.equal c up))
    [ 0; 63 ];
  Alcotest.(check bool) "equal clocks: leq" true (Vclock.leq c (vc base));
  Alcotest.(check bool) "equal clocks: not lt" false (Vclock.lt c (vc base));
  Alcotest.(check bool) "equal clocks: equal" true (Vclock.equal c (vc base));
  Alcotest.(check bool) "different widths are not equal" false
    (Vclock.equal (Vclock.create 3) (Vclock.create 4));
  Alcotest.check_raises "lt mismatch keeps leq's message"
    (Invalid_argument "Vclock.leq: size mismatch") (fun () ->
      ignore (Vclock.lt (Vclock.create 2) (Vclock.create 3)))

(* Minor words allocated per call of [f], over [n] calls. *)
let words_per_call n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_kernels_do_not_allocate () =
  let a = Vclock.of_list (List.init 64 (fun i -> i))
  and b = Vclock.of_list (List.init 64 (fun i -> i + 1)) in
  let n = 10_000 in
  List.iter
    (fun (name, f) ->
      let w = words_per_call n f in
      if w >= 1.0 then
        Alcotest.failf "%s: %.2f minor words per call on 64-wide clocks" name w)
    [
      ("leq", fun () -> ignore (Sys.opaque_identity (Vclock.leq a b)));
      ("lt", fun () -> ignore (Sys.opaque_identity (Vclock.lt a b)));
      ("equal", fun () -> ignore (Sys.opaque_identity (Vclock.equal a b)));
      ("join", fun () -> Vclock.join a b);
    ]

(* The slice digest hashes the clock component by component.  This value
   was computed by the list-building implementation it replaced; the
   digest must not change, or recorded checksums stop verifying. *)
let test_checksum_pinned () =
  let time =
    Vclock.of_list (List.init 64 (fun i -> ((i * 7919) mod 1013) + i))
  in
  let mods =
    [
      { Rfdet_mem.Diff.addr = 4096 + 17; data = "hello, slice" };
      { Rfdet_mem.Diff.addr = (8192 * 3) + 5; data = "\x00\xff\x7f" };
    ]
  in
  Alcotest.(check int) "checksum" 2121303387376023531
    (Rfdet_core.Slice.compute_checksum ~tid:3 ~mods ~time)

let prop_stamp_order =
  let gen_stamp =
    QCheck2.Gen.(
      pair
        (oneof [ int_bound 4; int; oneofl [ min_int; max_int; 0 ] ])
        (int_bound 8))
  in
  QCheck2.Test.make ~name:"arbiter: stamp order is Stdlib.compare on pairs"
    ~count:1000
    QCheck2.Gen.(pair gen_stamp gen_stamp)
    (fun (a, b) ->
      Rfdet_kendo.Arbiter.compare_stamp a b = Stdlib.compare a b
      && Rfdet_kendo.Arbiter.compare_stamp a a = 0)

let suites =
  [
    ( "vclock",
      [
        Alcotest.test_case "create" `Quick test_create;
        Alcotest.test_case "tick" `Quick test_tick;
        Alcotest.test_case "join" `Quick test_join;
        Alcotest.test_case "min_into" `Quick test_min_into;
        Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
        QCheck_alcotest.to_alcotest prop_join_upper_bound;
        QCheck_alcotest.to_alcotest prop_join_least;
        QCheck_alcotest.to_alcotest prop_join_commutative;
        QCheck_alcotest.to_alcotest prop_join_associative;
        QCheck_alcotest.to_alcotest prop_leq_antisym;
        QCheck_alcotest.to_alcotest prop_leq_transitive;
        QCheck_alcotest.to_alcotest prop_partial_consistent;
        QCheck_alcotest.to_alcotest prop_lt_irreflexive_strict;
        QCheck_alcotest.to_alcotest prop_filter_upper_monotone;
        QCheck_alcotest.to_alcotest prop_filter_lower_monotone;
        QCheck_alcotest.to_alcotest prop_filter_transitive;
        QCheck_alcotest.to_alcotest prop_filter_never_twice;
      ] );
    ( "comparison kernels",
      [
        QCheck_alcotest.to_alcotest prop_kernels_match_reference;
        Alcotest.test_case "edge indices and equal clocks" `Quick
          test_kernels_edge_indices;
        Alcotest.test_case "no allocation on 64-wide clocks" `Quick
          test_kernels_do_not_allocate;
        Alcotest.test_case "slice checksum pinned" `Quick test_checksum_pinned;
        QCheck_alcotest.to_alcotest prop_stamp_order;
      ] );
  ]
