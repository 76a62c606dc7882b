(* Tests for the simulated vector ISA: lanes, masks, tables, compaction
   engines, and the accounting VM. *)

open Vc_simd

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Lane                                                                *)

let test_lane_bits () =
  check_int "i8 bits" 8 (Lane.bits Lane.I8);
  check_int "i16 bytes" 2 (Lane.bytes Lane.I16);
  check_int "i32 bits" 32 (Lane.bits Lane.I32);
  check_int "i64 bytes" 8 (Lane.bytes Lane.I64)

let test_lane_fitting () =
  Alcotest.(check string) "small" "i8" (Lane.to_string (Lane.fitting 100));
  Alcotest.(check string) "boundary 127" "i8" (Lane.to_string (Lane.fitting 127));
  Alcotest.(check string) "boundary 128" "i16" (Lane.to_string (Lane.fitting 128));
  Alcotest.(check string) "negative" "i8" (Lane.to_string (Lane.fitting (-128)));
  Alcotest.(check string) "word" "i32" (Lane.to_string (Lane.fitting 1_000_000));
  Alcotest.(check string) "big" "i64" (Lane.to_string (Lane.fitting (1 lsl 40)))

(* ------------------------------------------------------------------ *)
(* Mask                                                                *)

let test_mask_basics () =
  let m = Mask.create ~width:4 0b0101 in
  check_int "width" 4 (Mask.width m);
  check_bool "lane 0" true (Mask.test m 0);
  check_bool "lane 1" false (Mask.test m 1);
  check_bool "lane 2" true (Mask.test m 2);
  check_int "popcount" 2 (Mask.popcount m);
  check_bool "not empty" false (Mask.is_empty m);
  check_bool "not full" false (Mask.is_full m);
  check_int "lognot bits" 0b1010 (Mask.bits (Mask.lognot m));
  check_bool "full is full" true (Mask.is_full (Mask.full ~width:4));
  check_bool "zero is empty" true (Mask.is_empty (Mask.zero ~width:7))

let test_mask_truncates () =
  (* bits beyond the width are dropped *)
  let m = Mask.create ~width:3 0b11111 in
  check_int "bits" 0b111 (Mask.bits m);
  check_int "popcount" 3 (Mask.popcount m)

let test_mask_errors () =
  Alcotest.check_raises "width 0" (Invalid_argument "Mask.create: width 0 not in 1..62")
    (fun () -> ignore (Mask.create ~width:0 0));
  Alcotest.check_raises "lane range" (Invalid_argument "Mask: lane 4 out of range 0..3")
    (fun () -> ignore (Mask.test (Mask.zero ~width:4) 4))

let test_mask_logic () =
  let a = Mask.create ~width:6 0b110101 in
  let b = Mask.create ~width:6 0b011100 in
  check_int "and" 0b010100 (Mask.bits (Mask.logand a b));
  check_int "or" 0b111101 (Mask.bits (Mask.logor a b));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Mask.logand: widths 6 and 3 differ") (fun () ->
      ignore (Mask.logand a (Mask.zero ~width:3)))

let test_mask_active_lanes () =
  let m = Mask.create ~width:8 0b10010010 in
  Alcotest.(check (list int)) "active" [ 1; 4; 7 ] (Mask.active_lanes m)

let mask_roundtrip =
  QCheck.Test.make ~name:"mask bools roundtrip" ~count:200
    QCheck.(array_of_size (Gen.int_range 1 30) bool)
    (fun bools ->
      let m = Mask.of_bools bools in
      Mask.to_bools m = bools
      && Mask.popcount m = Array.fold_left (fun a b -> if b then a + 1 else a) 0 bools)

let mask_lognot_involution =
  QCheck.Test.make ~name:"mask lognot involution" ~count:200
    QCheck.(pair (int_range 1 30) small_nat)
    (fun (width, bits) ->
      let m = Mask.create ~width bits in
      Mask.equal m (Mask.lognot (Mask.lognot m)))

(* ------------------------------------------------------------------ *)
(* Isa                                                                 *)

let test_isa_lanes () =
  check_int "sse i8" 16 (Isa.lanes Isa.sse42 Lane.I8);
  check_int "sse i16" 8 (Isa.lanes Isa.sse42 Lane.I16);
  check_int "sse i32" 4 (Isa.lanes Isa.sse42 Lane.I32);
  (* IMCI widens narrow types to 32-bit *)
  check_int "phi i8" 16 (Isa.lanes Isa.avx512 Lane.I8);
  check_int "phi i16" 16 (Isa.lanes Isa.avx512 Lane.I16);
  check_int "phi i32" 16 (Isa.lanes Isa.avx512 Lane.I32);
  check_int "phi i64" 8 (Isa.lanes Isa.avx512 Lane.I64)

let test_isa_avx512bw () =
  check_int "char lanes" 64 (Isa.lanes Isa.avx512bw Lane.I8);
  check_int "int lanes" 16 (Isa.lanes Isa.avx512bw Lane.I32);
  check_bool "has both" true
    (Isa.avx512bw.Isa.has_shuffle && Isa.avx512bw.Isa.has_masked_scatter)

let test_isa_features () =
  check_bool "sse shuffle" true Isa.sse42.Isa.has_shuffle;
  check_bool "sse no scatter" false Isa.sse42.Isa.has_masked_scatter;
  check_bool "phi no shuffle" false Isa.avx512.Isa.has_shuffle;
  check_bool "phi scatter" true Isa.avx512.Isa.has_masked_scatter

(* ------------------------------------------------------------------ *)
(* Shuffle / prefix tables                                             *)

let test_shuffle_table () =
  let t = Shuffle_table.make ~width:4 in
  check_int "entries" 16 (Shuffle_table.entry_count t);
  let control = Shuffle_table.shuffle_control t 0b0101 in
  Alcotest.(check (array int)) "control" [| 0; 2; -1; -1 |] control;
  check_int "advance" 2 (Shuffle_table.advance t 0b0101);
  check_int "advance full" 4 (Shuffle_table.advance t 0b1111);
  check_int "advance empty" 0 (Shuffle_table.advance t 0)

let test_shuffle_apply () =
  let t = Shuffle_table.make ~width:4 in
  let dst = Array.make 8 0 in
  let pos = Shuffle_table.apply t 0b1010 ~src:[| 10; 20; 30; 40 |] ~dst ~pos:1 in
  check_int "pos" 3 pos;
  check_int "dst1" 20 dst.(1);
  check_int "dst2" 40 dst.(2)

let shuffle_advance_is_popcount =
  QCheck.Test.make ~name:"shuffle advance = popcount" ~count:300
    QCheck.(pair (int_range 1 10) small_nat)
    (fun (width, m) ->
      let m = m land ((1 lsl width) - 1) in
      let t = Shuffle_table.make ~width in
      let rec pop acc b = if b = 0 then acc else pop (acc + (b land 1)) (b lsr 1) in
      Shuffle_table.advance t m = pop 0 m)

let test_prefix_table () =
  let t = Prefix_table.make ~width:4 in
  check_int "entries" 16 (Prefix_table.entry_count t);
  Alcotest.(check (array int)) "offsets" [| 0; 1; 2; 2 |] (Prefix_table.offsets t 0b1011);
  check_int "advance" 3 (Prefix_table.advance t 0b1011)

let test_prefix_apply () =
  let t = Prefix_table.make ~width:4 in
  let dst = Array.make 8 0 in
  let pos = Prefix_table.apply t 0b1001 ~src:[| 5; 6; 7; 8 |] ~dst ~pos:2 in
  check_int "pos" 4 pos;
  check_int "dst2" 5 dst.(2);
  check_int "dst3" 8 dst.(3)

let test_table_memory () =
  let full16 = Shuffle_table.memory_bytes (Shuffle_table.make ~width:16) in
  let sub8 = Shuffle_table.memory_bytes (Shuffle_table.make ~width:8) in
  (* the paper's factor-256 table shrink for 16-wide from 8-wide tables *)
  check_bool "factorized tables are much smaller" true (full16 / sub8 >= 128)

(* ------------------------------------------------------------------ *)
(* Compact engines                                                     *)

let vm_for engine =
  match engine with
  | Compact.Prefix_scatter _ -> Vm.create Isa.avx512
  | _ -> Vm.create Isa.sse42

let engines_for width =
  Compact.Sequential
  :: (if width <= 16 then [ Compact.Full_table ] else [])
  @ List.filter_map
      (fun s -> if width mod s = 0 && s <= width then Some (Compact.Factorized { sub_width = s }) else None)
      [ 2; 4; 8 ]
  @ [ Compact.Prefix_scatter { sub_width = min width 8 } ]

let reference_partition n pred =
  let sel = ref [] and rest = ref [] in
  for i = n - 1 downto 0 do
    if pred i then sel := i :: !sel else rest := i :: !rest
  done;
  (Array.of_list !sel, Array.of_list !rest)

let compact_engines_agree =
  QCheck.Test.make ~name:"all compaction engines implement stable partition"
    ~count:300
    QCheck.(pair (int_range 0 100) (array_of_size (Gen.int_range 0 100) bool))
    (fun (_, keeps) ->
      let n = Array.length keeps in
      let pred i = keeps.(i) in
      let expected = reference_partition n pred in
      List.for_all
        (fun width ->
          List.for_all
            (fun engine ->
              let vm = vm_for engine in
              Compact.partition ~vm ~engine ~width ~n ~pred = expected)
            (engines_for width))
        [ 4; 8; 16 ])

let compact_wide_registers =
  (* registers wider than the native int's bits (AVX512BW char lanes) *)
  QCheck.Test.make ~name:"compaction at width 32/64 (avx512bw)" ~count:100
    QCheck.(array_of_size (Gen.int_range 0 200) bool)
    (fun keeps ->
      let n = Array.length keeps in
      let pred i = keeps.(i) in
      let expected = reference_partition n pred in
      List.for_all
        (fun width ->
          List.for_all
            (fun engine ->
              let vm = Vm.create Isa.avx512bw in
              Compact.partition ~vm ~engine ~width ~n ~pred = expected)
            [ Compact.Factorized { sub_width = 8 };
              Compact.Prefix_scatter { sub_width = 8 } ])
        [ 32; 64 ])

(* Exhaustive seeded fuzz over the full engine matrix: every supported
   width, every sub-width k dividing it (k <= 8), every engine legal on a
   both-capable ISA, against the naive stable partition — on random masks
   plus the all-zero and all-one boundary masks, which the table-driven
   paths treat specially (empty groups, no epilog). *)
let fuzz_isa =
  (* both compaction primitives available, so one VM runs every engine *)
  {
    Isa.name = "fuzz";
    vector_bits = 512;
    has_shuffle = true;
    has_masked_scatter = true;
    min_lane_bits = 8;
    scalar_issue = 1.0;
    vector_issue = 1.0;
    gather_cost = 2.0;
    scatter_cost = 2.0;
  }

let fuzz_engines width =
  Compact.Sequential
  :: (if width <= 16 then [ Compact.Full_table ] else [])
  @ List.concat_map
      (fun k ->
        if k <= width && width mod k = 0 then
          [ Compact.Factorized { sub_width = k };
            Compact.Prefix_scatter { sub_width = k } ]
        else [])
      [ 1; 2; 4; 8 ]

let test_compact_engine_matrix () =
  let seed =
    match Sys.getenv_opt "VC_PROP_SEED" with
    | Some s -> (try int_of_string s with _ -> 42)
    | None -> 42
  in
  let st = Random.State.make [| seed |] in
  let widths = [ 2; 4; 8; 16; 32; 64 ] in
  let masks n =
    Array.make n false :: Array.make n true
    :: List.init 6 (fun _ -> Array.init n (fun _ -> Random.State.bool st))
  in
  let checked = ref 0 in
  (* one buffer pair for the whole matrix, dirty and (mostly) longer than
     [n]: the buffer form must ignore whatever a previous call left *)
  let sel = { Compact.idx = Array.make 256 (-7); len = 99 }
  and rest = { Compact.idx = Array.make 256 (-7); len = 99 } in
  let logged () =
    let log = ref [] in
    (Vm.create ~on_access:(fun ~addr ~bytes ~write -> log := (addr, bytes, write) :: !log) fuzz_isa, log)
  in
  List.iter
    (fun width ->
      List.iter
        (fun n ->
          List.iter
            (fun keeps ->
              let pred i = keeps.(i) in
              let expected = reference_partition n pred in
              List.iter
                (fun engine ->
                  let vm, log = logged () in
                  let got = Compact.partition ~vm ~engine ~width ~n ~pred in
                  if got <> expected then
                    Alcotest.failf
                      "engine %s disagrees at width %d, n %d, seed %d"
                      (Compact.name engine) width n seed;
                  (* the buffer form: same rows, same charges, same accesses *)
                  let vm_into, log_into = logged () in
                  Compact.partition_into ~vm:vm_into ~engine ~width ~n ~pred ~sel ~rest;
                  let rows r = Array.sub r.Compact.idx 0 r.Compact.len in
                  if (rows sel, rows rest) <> expected then
                    Alcotest.failf "buffer form of %s disagrees at width %d, n %d, seed %d"
                      (Compact.name engine) width n seed;
                  if Vm.stats vm_into <> Vm.stats vm then
                    Alcotest.failf "buffer form of %s charges differ at width %d, n %d"
                      (Compact.name engine) width n;
                  if !log_into <> !log then
                    Alcotest.failf "buffer form of %s accesses differ at width %d, n %d"
                      (Compact.name engine) width n;
                  (* call/pass tallies behave as documented *)
                  let s = Vm.stats vm in
                  if n = 0 then
                    check_int "no call on empty stream" 0 s.Stats.compaction_calls
                  else begin
                    check_int "one call per partition" 1 s.Stats.compaction_calls;
                    if engine = Compact.Sequential then
                      check_int "sequential has no passes" 0 s.Stats.compaction_passes
                    else
                      check_bool "table engines count passes" true
                        (s.Stats.compaction_passes > 0)
                  end;
                  incr checked)
                (fuzz_engines width))
            (masks n))
        [ 0; 1; width - 1; width; width + 1; (3 * width) + 2 ])
    widths;
  check_bool "matrix was non-trivial" true (!checked > 1000)

(* Regression: the shuffle/prefix memo tables are global; before they were
   mutex-guarded, concurrent first-use from several domains raced on
   [Hashtbl.add].  Hammer [partition] from 4 domains using widths no other
   test touches, so every domain hits cold tables simultaneously. *)
let test_compact_parallel_domains () =
  let domains = 4 in
  let n = 4096 in
  let keeps = Array.init n (fun i -> i * 2654435761 land 0b100 = 0) in
  let pred i = keeps.(i) in
  let expected = reference_partition n pred in
  let cases =
    [
      (Compact.Full_table, Isa.sse42, 13);
      (Compact.Full_table, Isa.sse42, 11);
      (Compact.Factorized { sub_width = 7 }, Isa.sse42, 14);
      (Compact.Factorized { sub_width = 5 }, Isa.sse42, 10);
      (Compact.Prefix_scatter { sub_width = 6 }, Isa.avx512, 12);
      (Compact.Prefix_scatter { sub_width = 9 }, Isa.avx512, 9);
    ]
  in
  let worker () =
    List.for_all
      (fun (engine, isa, width) ->
        let vm = Vm.create isa in
        Compact.partition ~vm ~engine ~width ~n ~pred = expected)
      cases
  in
  let spawned = List.init domains (fun _ -> Domain.spawn worker) in
  let ok = List.map Domain.join spawned in
  check_bool "all domains computed the reference partition" true
    (List.for_all Fun.id ok)

let test_compact_default_engines () =
  (match Compact.default_for Isa.sse42 ~width:16 with
  | Compact.Factorized { sub_width } -> check_int "sse 16-wide sub" 8 sub_width
  | _ -> Alcotest.fail "expected factorized on sse");
  (match Compact.default_for Isa.sse42 ~width:8 with
  | Compact.Full_table -> ()
  | _ -> Alcotest.fail "expected full table for narrow width");
  match Compact.default_for Isa.avx512 ~width:16 with
  | Compact.Prefix_scatter _ -> ()
  | _ -> Alcotest.fail "expected prefix-scatter on avx512"

let test_compact_legality () =
  check_bool "shuffle illegal on phi" false (Compact.legal Isa.avx512 Compact.Full_table);
  check_bool "scatter illegal on sse" false
    (Compact.legal Isa.sse42 (Compact.Prefix_scatter { sub_width = 8 }));
  check_bool "sequential always legal" true (Compact.legal Isa.avx512 Compact.Sequential);
  let vm = Vm.create Isa.avx512 in
  match
    Compact.partition ~vm ~engine:Compact.Full_table ~width:16 ~n:4
      ~pred:(fun _ -> true)
  with
  | _ -> Alcotest.fail "partition accepted an illegal engine"
  | exception Compact.Unsupported { engine; isa; reason } ->
      Alcotest.(check string) "unsupported engine" "full-table" engine;
      Alcotest.(check string) "unsupported isa" "avx512" isa;
      check_bool "reason non-empty" true (String.length reason > 0)

let test_compact_costs () =
  (* factorized-8 on a 16-wide stream: 2 sub-groups per register per side,
     2 lookups per sub-group -> 8 lookups per 16 elements *)
  let vm = Vm.create Isa.sse42 in
  ignore
    (Compact.partition ~vm ~engine:(Compact.Factorized { sub_width = 8 }) ~width:16
       ~n:16 ~pred:(fun i -> i mod 2 = 0));
  check_int "factorized lookups" 8 (Vm.stats vm).Stats.table_lookups;
  check_int "factorized shuffles" 4 (Vm.stats vm).Stats.shuffles;
  let vm2 = Vm.create Isa.sse42 in
  ignore
    (Compact.partition ~vm:vm2 ~engine:Compact.Full_table ~width:16 ~n:16
       ~pred:(fun i -> i mod 2 = 0));
  check_int "full-table lookups" 4 (Vm.stats vm2).Stats.table_lookups;
  check_int "full-table shuffles" 2 (Vm.stats vm2).Stats.shuffles;
  (* sequential charges scalar ops only *)
  let vm3 = Vm.create Isa.sse42 in
  ignore
    (Compact.partition ~vm:vm3 ~engine:Compact.Sequential ~width:16 ~n:10
       ~pred:(fun _ -> true));
  check_int "sequential scalar" 20 (Vm.stats vm3).Stats.scalar_ops;
  check_int "sequential no vector" 0 (Vm.stats vm3).Stats.vector_ops

let test_compact_table_memory () =
  let full = Compact.table_memory_bytes Compact.Full_table ~width:16 in
  let fact = Compact.table_memory_bytes (Compact.Factorized { sub_width = 8 }) ~width:16 in
  check_bool "space trade-off" true (fact * 100 < full);
  check_int "sequential no table" 0 (Compact.table_memory_bytes Compact.Sequential ~width:16)

(* ------------------------------------------------------------------ *)
(* Vm                                                                  *)

let test_vm_batch () =
  let vm = Vm.create Isa.sse42 in
  Vm.batch vm ~classify:true ~width:16 ~n:35 ~insns_per_task:3 ();
  let s = Vm.stats vm in
  check_int "vector ops" 9 s.Stats.vector_ops;
  (* 3 groups * 3 insns *)
  check_int "lane slots" (9 * 16) s.Stats.lane_slots;
  check_int "active" (35 * 3) s.Stats.active_lanes;
  check_int "full tasks" 32 s.Stats.full_tasks;
  check_int "epilog" 3 s.Stats.epilog_tasks;
  Alcotest.(check (float 1e-9)) "utilization" (32.0 /. 35.0) (Stats.simd_utilization s)

let test_vm_batch_unclassified () =
  let vm = Vm.create Isa.sse42 in
  Vm.batch vm ~width:8 ~n:10 ~insns_per_task:1 ();
  let s = Vm.stats vm in
  check_int "no task classes" 0 (s.Stats.full_tasks + s.Stats.epilog_tasks)

let test_vm_cycles () =
  let vm = Vm.create Isa.avx512 in
  Vm.scalar_ops vm 10;
  Vm.vector_op vm ~width:16 ~active:16;
  (* phi scalar issue = 2.0 *)
  Alcotest.(check (float 1e-9)) "cycles" 21.0 (Vm.issue_cycles vm)

let test_vm_illegal_ops () =
  let vm = Vm.create Isa.avx512 in
  Alcotest.check_raises "no shuffle on phi"
    (Invalid_argument "Vm.shuffle: ISA avx512 has no shuffle instruction") (fun () ->
      Vm.shuffle vm ~width:16);
  let vm2 = Vm.create Isa.sse42 in
  Alcotest.check_raises "no masked scatter on sse"
    (Invalid_argument "Vm.masked_scatter: ISA sse4.2 has no masked scatter") (fun () ->
      Vm.masked_scatter vm2 ~width:16 ~active:4 ~lane_bytes:4 ~addr:0)

let test_vm_memory_hook () =
  let log = ref [] in
  let vm =
    Vm.create ~on_access:(fun ~addr ~bytes ~write -> log := (addr, bytes, write) :: !log) Isa.sse42
  in
  Vm.vector_load vm ~addr:128 ~lanes:16 ~lane_bytes:1;
  Vm.scalar_store vm ~addr:4096 ~bytes:4;
  (match !log with
  | [ (4096, 4, true); (128, 16, false) ] -> ()
  | _ -> Alcotest.fail "unexpected access log");
  check_int "loads" 1 (Vm.stats vm).Stats.vector_loads;
  check_int "stores" 1 (Vm.stats vm).Stats.scalar_stores

(* [Vm.column] streams a column as width-chunks, the last one partial. *)
let test_vm_column () =
  let log = ref [] in
  let vm =
    Vm.create ~on_access:(fun ~addr ~bytes ~write -> log := (addr, bytes, write) :: !log) Isa.sse42
  in
  Vm.column vm ~write:false ~addr:1000 ~n:10 ~width:4 ~lane_bytes:4;
  Vm.column vm ~write:true ~addr:2000 ~n:8 ~width:8 ~lane_bytes:8;
  Vm.column vm ~write:true ~addr:3000 ~n:0 ~width:8 ~lane_bytes:8;
  check_bool "accesses" true
    (List.rev !log
    = [ (1000, 16, false); (1016, 16, false); (1032, 8, false); (2000, 64, true) ]);
  let s = Vm.stats vm in
  check_int "loads" 3 s.Stats.vector_loads;
  check_int "stores" 1 s.Stats.vector_stores;
  check_int "vector ops" 4 s.Stats.vector_ops;
  check_int "lane slots" 18 s.Stats.lane_slots;
  check_int "active lanes" 18 s.Stats.active_lanes

(* Seeded differential of [Vm.column] against its definition: one
   [vector_load] (or [vector_store]) per width-chunk, the last partial.
   Both machines accumulate counters over the whole stream; the counters
   and each column's hook log must agree. *)
let test_vm_column_reference () =
  let widths = [| 1; 4; 8; 16; 64 |] and lane_sizes = [| 1; 2; 4; 8 |] in
  let reference vm ~write ~addr ~n ~width ~lane_bytes =
    let row = ref 0 in
    while !row < n do
      let lanes = Int.min width (n - !row) in
      let addr = addr + (!row * lane_bytes) in
      if write then Vm.vector_store vm ~addr ~lanes ~lane_bytes
      else Vm.vector_load vm ~addr ~lanes ~lane_bytes;
      row := !row + width
    done
  in
  let st = Random.State.make [| 24 |] in
  let machine hooked =
    let log = ref [] in
    let vm =
      if hooked then
        Vm.create ~on_access:(fun ~addr ~bytes ~write -> log := (addr, bytes, write) :: !log)
          Isa.avx512
      else Vm.create Isa.avx512
    in
    (vm, log)
  in
  List.iter
    (fun hooked ->
      let vm, log = machine hooked and ref_vm, ref_log = machine hooked in
      let logged = ref 0 in
      for step = 1 to 3000 do
        let n = Random.State.int st 301 in
        let width = widths.(Random.State.int st (Array.length widths)) in
        let lane_bytes = lane_sizes.(Random.State.int st (Array.length lane_sizes)) in
        let write = Random.State.bool st in
        let addr = Random.State.int st 100_000 in
        Vm.column vm ~write ~addr ~n ~width ~lane_bytes;
        reference ref_vm ~write ~addr ~n ~width ~lane_bytes;
        if Vm.stats vm <> Vm.stats ref_vm then
          Alcotest.failf "hook %b step %d: stats differ (n %d width %d lane_bytes %d)" hooked
            step n width lane_bytes;
        if !log <> !ref_log then
          Alcotest.failf "hook %b step %d: access logs differ" hooked step;
        if !log <> [] then incr logged;
        log := [];
        ref_log := []
      done;
      check_bool "stream issued vector ops" true ((Vm.stats vm).Stats.vector_ops > 10_000);
      check_bool "only a hooked machine logs" hooked (!logged > 0))
    [ true; false ]

let test_vm_gather_scatter_costs () =
  let vm = Vm.create Isa.sse42 in
  Vm.gather vm ~addrs:[| 0; 64; 128; 192 |] ~lane_bytes:4;
  Vm.scatter vm ~addrs:[| 0; 64 |] ~lane_bytes:4;
  let s = Vm.stats vm in
  check_int "gathers" 1 s.Stats.gathers;
  check_int "scatters" 1 s.Stats.scatters;
  (* 2 vector ops + gather_cost 4 + scatter_cost 4 *)
  Alcotest.(check (float 1e-9)) "cycles" 10.0 (Vm.issue_cycles vm)

let test_vm_access_hook_swap () =
  let vm = Vm.create Isa.sse42 in
  let hits = ref 0 in
  Vm.set_on_access vm (Some (fun ~addr:_ ~bytes:_ ~write:_ -> incr hits));
  Vm.scalar_load vm ~addr:0 ~bytes:4;
  Vm.set_on_access vm None;
  Vm.scalar_load vm ~addr:0 ~bytes:4;
  check_int "hook swapped" 1 !hits

let test_stats_add_diff () =
  let a = Stats.create () in
  a.Stats.scalar_ops <- 5;
  let b = Stats.copy a in
  b.Stats.scalar_ops <- 9;
  let d = Stats.diff b a in
  check_int "diff" 4 d.Stats.scalar_ops;
  Stats.add a d;
  check_int "add" 9 a.Stats.scalar_ops

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vc_simd"
    [
      ( "lane",
        [
          Alcotest.test_case "bits/bytes" `Quick test_lane_bits;
          Alcotest.test_case "fitting" `Quick test_lane_fitting;
        ] );
      ( "mask",
        [
          Alcotest.test_case "basics" `Quick test_mask_basics;
          Alcotest.test_case "truncation" `Quick test_mask_truncates;
          Alcotest.test_case "errors" `Quick test_mask_errors;
          Alcotest.test_case "logic" `Quick test_mask_logic;
          Alcotest.test_case "active lanes" `Quick test_mask_active_lanes;
        ]
        @ qsuite [ mask_roundtrip; mask_lognot_involution ] );
      ( "isa",
        [
          Alcotest.test_case "lanes" `Quick test_isa_lanes;
          Alcotest.test_case "features" `Quick test_isa_features;
          Alcotest.test_case "avx512bw" `Quick test_isa_avx512bw;
        ] );
      ( "tables",
        [
          Alcotest.test_case "shuffle table" `Quick test_shuffle_table;
          Alcotest.test_case "shuffle apply" `Quick test_shuffle_apply;
          Alcotest.test_case "prefix table" `Quick test_prefix_table;
          Alcotest.test_case "prefix apply" `Quick test_prefix_apply;
          Alcotest.test_case "memory factor" `Quick test_table_memory;
        ]
        @ qsuite [ shuffle_advance_is_popcount ] );
      ( "compact",
        [
          Alcotest.test_case "default engines" `Quick test_compact_default_engines;
          Alcotest.test_case "legality" `Quick test_compact_legality;
          Alcotest.test_case "costs" `Quick test_compact_costs;
          Alcotest.test_case "table memory" `Quick test_compact_table_memory;
          Alcotest.test_case "parallel domains" `Quick test_compact_parallel_domains;
          Alcotest.test_case "seeded engine matrix" `Quick test_compact_engine_matrix;
        ]
        @ qsuite [ compact_engines_agree; compact_wide_registers ] );
      ( "vm",
        [
          Alcotest.test_case "batch accounting" `Quick test_vm_batch;
          Alcotest.test_case "batch unclassified" `Quick test_vm_batch_unclassified;
          Alcotest.test_case "issue cycles" `Quick test_vm_cycles;
          Alcotest.test_case "illegal ops" `Quick test_vm_illegal_ops;
          Alcotest.test_case "memory hook" `Quick test_vm_memory_hook;
          Alcotest.test_case "stats add/diff" `Quick test_stats_add_diff;
          Alcotest.test_case "gather/scatter costs" `Quick test_vm_gather_scatter_costs;
          Alcotest.test_case "column = chunked loads/stores" `Quick test_vm_column;
          Alcotest.test_case "column reference differential" `Quick test_vm_column_reference;
          Alcotest.test_case "access hook swap" `Quick test_vm_access_hook_swap;
        ] );
    ]
