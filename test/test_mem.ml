(* Tests for the cache simulator, hierarchy, machines, and cost model. *)

open Vc_mem

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_cache () =
  (* 4 sets x 2 ways x 64B lines = 512 B *)
  Cache.create { Cache.size_bytes = 512; ways = 2; line_bytes = 64 }

let test_cache_config_errors () =
  Alcotest.check_raises "zero size" (Invalid_argument "Cache.create: sizes must be positive")
    (fun () -> ignore (Cache.create { Cache.size_bytes = 0; ways = 1; line_bytes = 64 }));
  Alcotest.check_raises "non-pow2 sets"
    (Invalid_argument "Cache.create: set count 3 not a power of two") (fun () ->
      ignore (Cache.create { Cache.size_bytes = 3 * 64; ways = 1; line_bytes = 64 }))

let test_cache_hits_and_misses () =
  let c = small_cache () in
  check_bool "cold miss" false (Cache.access c ~addr:0);
  check_bool "warm hit" true (Cache.access c ~addr:0);
  check_bool "same line hit" true (Cache.access c ~addr:63);
  check_bool "next line miss" false (Cache.access c ~addr:64);
  check_int "accesses" 4 (Cache.accesses c);
  check_int "misses" 2 (Cache.misses c);
  Alcotest.(check (float 1e-9)) "miss rate" 0.5 (Cache.miss_rate c)

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* set stride = 4 sets * 64 = 256B; these three lines map to set 0 *)
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:256);
  ignore (Cache.access c ~addr:0);
  (* touch 0 again: 256 is now LRU *)
  ignore (Cache.access c ~addr:512);
  (* evicts 256 *)
  check_bool "0 still resident" true (Cache.access c ~addr:0);
  check_bool "256 evicted" false (Cache.access c ~addr:256)

let test_cache_working_set_cliff () =
  (* a working set that fits is all hits on the second pass; one that
     doesn't fit (streaming LRU) keeps missing - the Fig. 11 cliff *)
  let run lines =
    let c = small_cache () in
    for pass = 1 to 2 do
      ignore pass;
      for i = 0 to lines - 1 do
        ignore (Cache.access c ~addr:(i * 64))
      done
    done;
    Cache.miss_rate c
  in
  Alcotest.(check (float 1e-9)) "fits: second pass all hits" 0.5 (run 4);
  check_bool "thrash: high miss rate" true (run 16 > 0.9)

(* A span is split into lines by [Hierarchy.access] alone: checked on a
   one-level hierarchy through the L1 counter deltas of each access. *)
let test_cache_access_range () =
  let h =
    Hierarchy.create
      [ { Hierarchy.label = "L1"; cache = small_cache (); miss_penalty = 1.0 } ]
  in
  let access ~bytes =
    let since = Hierarchy.level_stats h in
    Hierarchy.access h ~addr:60 ~bytes;
    match Hierarchy.delta ~since (Hierarchy.level_stats h) with
    | [ ("L1", accesses, misses) ] -> (accesses, misses)
    | _ -> Alcotest.fail "one level expected"
  in
  let check msg expected got = Alcotest.(check (pair int int)) msg expected got in
  check "spans two lines" (2, 2) (access ~bytes:8);
  check "now hits" (2, 0) (access ~bytes:8);
  check "zero bytes still touches" (1, 0) (access ~bytes:0)

let test_cache_reset_clear () =
  let c = small_cache () in
  ignore (Cache.access c ~addr:0);
  Cache.reset_counters c;
  check_int "counters zero" 0 (Cache.accesses c);
  check_bool "contents kept" true (Cache.access c ~addr:0);
  Cache.clear c;
  check_bool "contents gone" false (Cache.access c ~addr:0);
  check_int "resident after one" 1 (Cache.resident_lines c)

(* Differential against a naive LRU: per set, a most-recent-first list of
   at most [ways] line numbers.  Seeded streams mix same-line runs, set
   conflicts (lines one set-stride apart), random lines, and interleaved [clear]/[reset_counters]; every
   access's hit/miss and the running totals must agree.  Each stream
   runs twice: counting up from line 0, and mirrored to count down from
   line 2^31 - 1, the largest a 32-bit tag holds. *)
let test_cache_reference_lru () =
  let configs =
    [
      { Cache.size_bytes = 512; ways = 2; line_bytes = 64 };
      { Cache.size_bytes = 256; ways = 4; line_bytes = 32 };
      { Cache.size_bytes = 128; ways = 8; line_bytes = 16 };
      { Cache.size_bytes = 512; ways = 1; line_bytes = 64 };
      (* the e5 LLC's 20 ways, and a 16-way set *)
      { Cache.size_bytes = 4 * 20 * 64; ways = 20; line_bytes = 64 };
      { Cache.size_bytes = 4 * 16 * 32; ways = 16; line_bytes = 32 };
    ]
  in
  let checked = ref 0 in
  List.iter
    (fun (config : Cache.config) ->
      let sets = config.size_bytes / (config.ways * config.line_bytes) in
      List.iter
        (fun (seed, high) ->
          let st = Random.State.make [| seed |] in
          let c = Cache.create config in
          let ref_sets = Array.make sets [] in
          let ref_accesses = ref 0 and ref_misses = ref 0 in
          let ref_access line =
            let set = line mod sets in
            let lines = ref_sets.(set) in
            let hit = List.mem line lines in
            let rest = List.filter (( <> ) line) lines in
            ref_sets.(set) <- List.filteri (fun i _ -> i < config.ways) (line :: rest);
            incr ref_accesses;
            if not hit then incr ref_misses;
            hit
          in
          let last = ref 0 in
          for step = 1 to 4000 do
            match Random.State.int st 100 with
            | 0 ->
                Cache.clear c;
                Array.fill ref_sets 0 sets [];
                ref_accesses := 0;
                ref_misses := 0
            | 1 ->
                Cache.reset_counters c;
                ref_accesses := 0;
                ref_misses := 0
            | k ->
                let line =
                  if k < 40 then !last
                  else if k < 70 then !last + ((1 + Random.State.int st 3) * sets)
                  else Random.State.int st (4 * sets * config.ways)
                in
                last := line;
                let line = if high then (1 lsl 31) - 1 - line else line in
                let addr = (line * config.line_bytes) + Random.State.int st config.line_bytes in
                let expected = ref_access line in
                if Cache.access c ~addr <> expected then
                  Alcotest.failf "%dB/%d-way seed %d%s step %d: line %d %s" config.size_bytes
                    config.ways seed
                    (if high then " (high lines)" else "")
                    step line
                    (if expected then "should hit" else "should miss");
                check_int "accesses" !ref_accesses (Cache.accesses c);
                check_int "misses" !ref_misses (Cache.misses c);
                incr checked
          done;
          check_int "resident lines"
            (Array.fold_left (fun acc l -> acc + List.length l) 0 ref_sets)
            (Cache.resident_lines c))
        (List.concat_map (fun seed -> [ (seed, false); (seed, true) ]) [ 1; 2; 3 ]))
    configs;
  check_bool "stream was non-trivial" true (!checked > 120_000)

(* A tag is 32 bits: a line number outside [0, 2^31) must be rejected,
   not stored as an alias of another line or of the invalid marker -1,
   and a rejected access leaves the cache and its counters as they were. *)
let test_cache_line_range () =
  let c = small_cache () in
  let top = ((1 lsl 31) - 1) * 64 in
  check_bool "line 2^31 - 1 misses" false (Cache.access c ~addr:top);
  check_bool "line 2^31 - 1 hits" true (Cache.access c ~addr:(top + 63));
  let rejected = Invalid_argument "Cache.access: line number outside [0, 2^31)" in
  Alcotest.check_raises "negative line" rejected (fun () ->
      ignore (Cache.access c ~addr:(-64)));
  Alcotest.check_raises "line -1 (the invalid marker)" rejected (fun () ->
      ignore (Cache.access c ~addr:(-1)));
  Alcotest.check_raises "line 2^31" rejected (fun () ->
      ignore (Cache.access c ~addr:(1 lsl 31 * 64)));
  (* 2^32 - 1 and 2^32 would alias -1 and 0 in 32 bits *)
  Alcotest.check_raises "line 2^32 - 1" rejected (fun () ->
      ignore (Cache.access c ~addr:(((1 lsl 32) - 1) * 64)));
  Alcotest.check_raises "line 2^32" rejected (fun () ->
      ignore (Cache.access c ~addr:(1 lsl 32 * 64)));
  check_int "accesses" 2 (Cache.accesses c);
  check_int "misses" 1 (Cache.misses c);
  check_int "resident" 1 (Cache.resident_lines c);
  check_bool "line 0 still cold" false (Cache.access c ~addr:0)

(* A set holds only its 32-bit tags: the e5 LLC's 327,680 lines take
   four bytes each (half a word), where an [int array] of tags took a
   word and a parallel array of LRU stamps would take another. *)
let test_cache_four_bytes_per_line () =
  let c = Cache.create { Cache.size_bytes = 20 * 1024 * 1024; ways = 20; line_bytes = 64 } in
  check_int "e5 LLC lines" 327_680 (Cache.lines c);
  let words = Obj.reachable_words (Obj.repr c) in
  if words > (Cache.lines c / 2) + 64 then
    Alcotest.failf "%d words reachable for %d lines" words (Cache.lines c)

let test_hierarchy_routing () =
  let h =
    Hierarchy.create
      [
        { Hierarchy.label = "L1"; cache = small_cache (); miss_penalty = 10.0 };
        {
          Hierarchy.label = "L2";
          cache = Cache.create { Cache.size_bytes = 4096; ways = 4; line_bytes = 64 };
          miss_penalty = 100.0;
        };
      ]
  in
  Hierarchy.access h ~addr:0 ~bytes:4;
  (* cold: misses both levels *)
  Alcotest.(check (float 1e-9)) "cold penalty" 110.0 (Hierarchy.penalty_cycles h);
  Hierarchy.access h ~addr:0 ~bytes:4;
  Alcotest.(check (float 1e-9)) "hit adds nothing" 110.0 (Hierarchy.penalty_cycles h);
  (match Hierarchy.level_stats h with
  | [ ("L1", 2, 1); ("L2", 1, 1) ] -> ()
  | _ -> Alcotest.fail "unexpected level stats");
  (* evict line 0 from L1 (it stays in the larger L2) *)
  for i = 1 to 8 do
    Hierarchy.access h ~addr:(i * 256) ~bytes:4
  done;
  let before = Hierarchy.penalty_cycles h in
  Hierarchy.access h ~addr:0 ~bytes:4;
  Alcotest.(check (float 1e-9)) "L1 miss, L2 hit" (before +. 10.0)
    (Hierarchy.penalty_cycles h)

(* Every level is walked at the nearest level's line size, so a level
   with other lines would be charged several accesses per line (or too
   few): such hierarchies are rejected. *)
let test_hierarchy_line_sizes () =
  let level label line_bytes =
    {
      Hierarchy.label;
      cache = Cache.create { Cache.size_bytes = 4096; ways = 4; line_bytes };
      miss_penalty = 1.0;
    }
  in
  Alcotest.check_raises "longer outer lines"
    (Invalid_argument "Hierarchy.create: level L2 has 128-byte lines, nearest level L1 has 64")
    (fun () -> ignore (Hierarchy.create [ level "L1" 64; level "L2" 128 ]));
  Alcotest.check_raises "shorter outer lines"
    (Invalid_argument "Hierarchy.create: level L3 has 32-byte lines, nearest level L1 has 64")
    (fun () -> ignore (Hierarchy.create [ level "L1" 64; level "L2" 64; level "L3" 32 ]));
  let h = Hierarchy.create [ level "L1" 64; level "L2" 64 ] in
  Hierarchy.access h ~addr:0 ~bytes:64;
  match Hierarchy.level_stats h with
  | [ ("L1", 1, 1); ("L2", 1, 1) ] -> ()
  | _ -> Alcotest.fail "one line is one access per level"

(* Differential of [Hierarchy.access] against a reference that splits
   each span into lines and walks a second hierarchy's caches one line
   at a time, adding a level's penalty on each miss.  Seeded spans of 0 to
   200 bytes at unaligned addresses cover one-line and multi-line cases;
   the level counters and the penalty must agree after every access. *)
let test_hierarchy_reference () =
  let make () =
    Hierarchy.create
      (List.map
         (fun (label, size_bytes, ways, miss_penalty) ->
           {
             Hierarchy.label;
             cache = Cache.create { Cache.size_bytes; ways; line_bytes = 64 };
             miss_penalty;
           })
         [ ("L1", 512, 2, 10.0); ("L2", 4096, 4, 100.0); ("L3", 16384, 8, 300.0) ])
  in
  let multi = ref 0 and single = ref 0 in
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let h = make () and r = make () in
      let ref_levels = Hierarchy.levels r in
      let ref_penalty = ref 0.0 in
      let rec walk line = function
        | [] -> ()
        | (l : Hierarchy.level) :: rest ->
            if not (Cache.access l.cache ~addr:(line * 64)) then begin
              ref_penalty := !ref_penalty +. l.miss_penalty;
              walk line rest
            end
      in
      let last = ref 0 in
      for step = 1 to 5000 do
        let addr =
          match Random.State.int st 4 with
          | 0 -> !last
          | 1 -> Int.max 0 (!last + Random.State.int st 256 - 128)
          | 2 -> Random.State.int st 1024 * 64
          | _ -> Random.State.int st 65536
        in
        last := addr;
        let bytes = Random.State.int st 201 in
        let first_line = addr / 64 and last_line = (addr + Int.max bytes 1 - 1) / 64 in
        if first_line = last_line then incr single else incr multi;
        Hierarchy.access h ~addr ~bytes;
        for line = first_line to last_line do
          walk line ref_levels
        done;
        if Hierarchy.level_stats h <> Hierarchy.level_stats r then
          Alcotest.failf "seed %d step %d: level stats differ at addr %d bytes %d" seed step
            addr bytes;
        if not (Float.equal (Hierarchy.penalty_cycles h) !ref_penalty) then
          Alcotest.failf "seed %d step %d: penalty %g, reference %g" seed step
            (Hierarchy.penalty_cycles h) !ref_penalty
      done)
    [ 1; 2; 3 ];
  check_bool "one-line spans" true (!single > 3000);
  check_bool "multi-line spans" true (!multi > 3000)

(* The hot-path contract: a modeled access allocates nothing, one-line
   and multi-line spans alike.  The second interval measures the two
   [Gc.minor_words] calls themselves. *)
let test_hierarchy_no_allocation () =
  let h = Hierarchy.xeon_e5 () in
  let m0 = Gc.minor_words () in
  let m1 = Gc.minor_words () in
  for i = 0 to 999_999 do
    Hierarchy.access h ~addr:((i * 40) land 0xF_FFFF) ~bytes:(i land 127)
  done;
  let m2 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words over 1M accesses" (m1 -. m0) (m2 -. m1);
  match Hierarchy.level_stats h with
  | ("L1d", a, _) :: _ -> check_bool "walked more lines than accesses" true (a > 1_000_000)
  | _ -> Alcotest.fail "e5 starts at L1d"

let test_hierarchy_miss_rate_lookup () =
  let h = Hierarchy.xeon_e5 () in
  Hierarchy.access h ~addr:0 ~bytes:4;
  Alcotest.(check (float 1e-9)) "L1d rate" 1.0 (Hierarchy.miss_rate h "L1d");
  Alcotest.check_raises "unknown label" Not_found (fun () ->
      ignore (Hierarchy.miss_rate h "L7"))

let test_presets () =
  let e5 = Hierarchy.xeon_e5 () in
  (match Hierarchy.levels e5 with
  | [ l1; llc ] ->
      check_int "E5 L1 32KB" (32 * 1024) (Cache.config l1.Hierarchy.cache).Cache.size_bytes;
      check_int "E5 LLC 20MB" (20 * 1024 * 1024)
        (Cache.config llc.Hierarchy.cache).Cache.size_bytes
  | _ -> Alcotest.fail "E5 has two levels");
  let phi = Hierarchy.xeon_phi () in
  match Hierarchy.levels phi with
  | [ _; l2 ] ->
      check_int "Phi L2 512KB" (512 * 1024) (Cache.config l2.Hierarchy.cache).Cache.size_bytes
  | _ -> Alcotest.fail "Phi has two levels"

let test_machines () =
  Alcotest.(check string) "find e5" "e5" (Machine.find "e5").Machine.name;
  Alcotest.(check string) "find phi" "phi" (Machine.find "phi").Machine.name;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Machine.find "m1"));
  check_bool "phi limit below e5" true
    (Machine.xeon_phi.Machine.max_live_threads < Machine.xeon_e5.Machine.max_live_threads)

let test_cost () =
  let vm = Vc_simd.Vm.create Vc_simd.Isa.sse42 in
  let h = Hierarchy.xeon_e5 () in
  Vc_simd.Vm.scalar_ops vm 100;
  Hierarchy.access h ~addr:0 ~bytes:4;
  (* cold: 10 + 150 penalty *)
  Alcotest.(check (float 1e-9)) "cycles" 260.0 (Cost.cycles vm h);
  Alcotest.(check (float 1e-9)) "cpi" 2.6 (Cost.cpi vm h);
  Alcotest.(check (float 1e-9)) "speedup" 2.0
    (Cost.speedup ~baseline_cycles:520.0 ~cycles:260.0);
  Alcotest.(check (float 1e-9)) "guarded" 0.0 (Cost.speedup ~baseline_cycles:1.0 ~cycles:0.0)

let () =
  Alcotest.run "vc_mem"
    [
      ( "cache",
        [
          Alcotest.test_case "config errors" `Quick test_cache_config_errors;
          Alcotest.test_case "hits and misses" `Quick test_cache_hits_and_misses;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "working-set cliff" `Quick test_cache_working_set_cliff;
          Alcotest.test_case "access range" `Quick test_cache_access_range;
          Alcotest.test_case "reset/clear" `Quick test_cache_reset_clear;
          Alcotest.test_case "reference LRU differential" `Quick test_cache_reference_lru;
          Alcotest.test_case "line numbers outside 31 bits raise" `Quick test_cache_line_range;
          Alcotest.test_case "four bytes per line" `Quick test_cache_four_bytes_per_line;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "routing" `Quick test_hierarchy_routing;
          Alcotest.test_case "line sizes must match" `Quick test_hierarchy_line_sizes;
          Alcotest.test_case "reference line walk differential" `Quick test_hierarchy_reference;
          Alcotest.test_case "accesses allocate nothing" `Quick test_hierarchy_no_allocation;
          Alcotest.test_case "miss-rate lookup" `Quick test_hierarchy_miss_rate_lookup;
          Alcotest.test_case "presets" `Quick test_presets;
        ] );
      ("machine", [ Alcotest.test_case "lookup and limits" `Quick test_machines ]);
      ("cost", [ Alcotest.test_case "cycle model" `Quick test_cost ]);
    ]
