(* The published-image layer: immutable copy-on-write snapshots, epoch
   publication, the bind/unbind payload protocol, wait-free readers racing
   a writer, and the unboxed-key lookup against the reference scan and
   the software backend. *)

open Fastrule
module Backend = Fr_plane.Backend

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk id prio plen base =
  Rule.make ~id
    ~field:
      (Header.pack
         {
           Header.wildcard with
           Header.dst_ip = Ternary.prefix_of_int64 ~width:32 ~plen base;
         })
    ~action:(Rule.Forward id) ~priority:prio

let test_empty () =
  let img = Image.empty in
  check_int "epoch 0" 0 (Image.epoch img);
  check_int "no entries" 0 (Image.entry_count img);
  check_int "no slots" 0 (Image.size img);
  check "lookup misses" true
    (Image.lookup img (Header.random_packet (Rng.create ~seed:1)) = None);
  let sized = Image.create ~size:40 in
  check "every slot free" true
    (List.for_all (Image.is_free sized) (List.init 40 Fun.id));
  check "out of range rejected" true
    (match Image.read sized 40 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_persistence () =
  (* Deriving a new image must leave every older snapshot untouched. *)
  let r1 = mk 1 8 8 0x0A000000L in
  let v0 = Image.create ~size:64 in
  let v1 = Image.write v0 ~addr:3 ~id:1 (Some r1) in
  let v2 = Image.erase v1 ~addr:3 in
  check_int "v0 empty" 0 (Image.entry_count v0);
  check_int "v1 holds 1" 1 (Image.entry_count v1);
  check "v1 slot" true (Image.read v1 3 = Image.Used 1);
  check_int "v2 empty again" 0 (Image.entry_count v2);
  check "v1 unchanged by erase" true (Image.read v1 3 = Image.Used 1);
  check "v0 unchanged by write" true (Image.is_free v0 3);
  check "epochs strictly grow" true
    (Image.epoch v0 < Image.epoch v1 && Image.epoch v1 < Image.epoch v2)

let test_move_vacates () =
  let v = Image.write (Image.create ~size:64) ~addr:2 ~id:7 None in
  (* Across a chunk boundary, so the move copies two leaves. *)
  let v = Image.move v ~src:2 ~dst:40 ~id:7 None in
  check_int "still one entry" 1 (Image.entry_count v);
  check "new slot" true (Image.read v 40 = Image.Used 7);
  check "old slot vacated" true
    (Image.fold v ~init:true ~f:(fun acc ~addr ~rule_id:_ -> acc && addr <> 2))

let test_unbound_skipped () =
  (* A slot whose payload is not bound must not answer lookups. *)
  let r = mk 4 24 24 0x0A000100L in
  let rng = Rng.create ~seed:9 in
  let pkt = Header.packet_in rng r.Rule.field in
  let t = Tcam.create ~size:8 in
  Tcam.write t ~rule_id:4 ~addr:1;
  check "unbound miss" true (Image.lookup (Tcam.image t) pkt = None);
  Tcam.bind_rule t r;
  check "bound hit" true
    (match Image.lookup (Tcam.image t) pkt with
    | Some x -> x.Rule.id = 4
    | None -> false);
  Tcam.unbind_rule t ~id:4;
  check "unbind hides again" true (Image.lookup (Tcam.image t) pkt = None);
  check "slot stays occupied" true (Image.read (Tcam.image t) 1 = Image.Used 4)

let test_tcam_publishes () =
  (* Every committed Tcam mutation publishes a fresh image that answers
     exactly like the reference scan. *)
  let rules = Dataset.generate Dataset.ACL4 ~seed:17 ~n:40 in
  let agent = Agent.of_rules ~capacity:100 rules in
  let tcam = Agent.tcam agent in
  check "image consistent" true (Result.is_ok (Tcam.image_consistent tcam));
  let img = Tcam.image tcam in
  check_int "image mirrors tcam" (Tcam.used_count tcam) (Image.entry_count img);
  let rng = Rng.create ~seed:18 in
  let agree = ref true in
  List.iter
    (fun (r : Rule.t) ->
      let pkt = Header.packet_in rng r.Rule.field in
      let live = Agent.lookup agent pkt in
      let snap = Image.lookup img pkt in
      let same =
        match (live, snap) with
        | None, None -> true
        | Some a, Some b -> a.Rule.id = b.Rule.id
        | _ -> false
      in
      if not same then agree := false)
    (Agent.rules agent);
  check "snapshot = live lookup" true !agree

let test_epoch_per_op () =
  let t = Tcam.create ~size:16 in
  let e0 = Image.epoch (Tcam.image t) in
  Tcam.write t ~rule_id:1 ~addr:0;
  let e1 = Image.epoch (Tcam.image t) in
  Tcam.write t ~rule_id:2 ~addr:1;
  let e2 = Image.epoch (Tcam.image t) in
  Tcam.erase t ~addr:0;
  let e3 = Image.epoch (Tcam.image t) in
  check "each op publishes" true (e0 < e1 && e1 < e2 && e2 < e3)

let test_copy_does_not_publish () =
  (* Simulation copies (Check.sequence) share the image but must never
     call the parent's publisher. *)
  let t = Tcam.create ~size:8 in
  let fired = ref 0 in
  Tcam.set_publisher t (Some (fun _ -> incr fired));
  Tcam.write t ~rule_id:1 ~addr:0;
  check_int "parent publishes" 1 !fired;
  let sim = Tcam.copy t in
  Tcam.write sim ~rule_id:2 ~addr:1;
  check_int "copy is silent" 1 !fired;
  check "parent image unaffected" true (Image.is_free (Tcam.image t) 1);
  check "parent index unaffected" true (Tcam.addr_of t 2 = None)

let test_publish_allocation_bound () =
  (* A publish copies one chunk per touched slot plus the O(log32 n)
     interior nodes above it, and edits the index along one key's trie
     path.  One per-op bound must hold at 8 192 and at 131 072 slots,
     both indexed: copying a flat spine of chunk pointers per publish
     (O(size / chunk) words, 8 192 at the larger size) fails it. *)
  let per_op_bound = 1024.0 in
  List.iter
    (fun n ->
      let t = Tcam.create ~size:(2 * n) in
      (* Distinct prefixes under three care masks. *)
      let rule i = mk i 0 (24 - (i mod 3)) (Int64.of_int (i lsl 10)) in
      Tcam.load ~payload:(fun i -> Some (rule i)) t (Array.init n (fun i -> (i, 2 * i)));
      check (Printf.sprintf "%d entries indexed" n) true (Image.indexed (Tcam.image t));
      let before = Gc.minor_words () in
      (* Move each entry to the far end of the table: two chunks, two
         interior paths and one index relocation per op. *)
      for i = 0 to 99 do
        Tcam.write t ~rule_id:i ~addr:((2 * n) - 1 - (2 * i))
      done;
      let per_op = (Gc.minor_words () -. before) /. 100.0 in
      check
        (Printf.sprintf "%d slots: per-op words %.0f < %.0f" (2 * n) per_op
           per_op_bound)
        true (per_op < per_op_bound);
      check "still consistent" true (Result.is_ok (Tcam.image_consistent t));
      let pkt = Header.packet_in (Rng.create ~seed:n) (rule 7).Rule.field in
      check "moved entry answers" true (Image.lookup_id (Tcam.image t) pkt = Some 7))
    [ 4096; 65536 ]

let test_consistency_catches_bad_index () =
  (* The cross-check must be able to fail: an index entry naming the wrong
     slot (occupied by another id, or free) is a desync. *)
  let fresh () =
    let t = Tcam.create ~size:64 in
    Tcam.load t [| (1, 3); (2, 20); (3, 40) |];
    t
  in
  check "clean table passes" true (Result.is_ok (Tcam.image_consistent (fresh ())));
  let t = fresh () in
  Tcam.unsafe_set_addr t ~rule_id:1 ~addr:20;
  check "index naming another entry's slot fails" true
    (Result.is_error (Tcam.image_consistent t));
  let t = fresh () in
  Tcam.unsafe_set_addr t ~rule_id:2 ~addr:21;
  check "index naming a free slot fails" true
    (Result.is_error (Tcam.image_consistent t));
  let t = fresh () in
  Tcam.unsafe_set_addr t ~rule_id:9 ~addr:40;
  check "extra index entry fails" true
    (Result.is_error (Tcam.image_consistent t))

let test_load_matches_writes () =
  (* The one-pass bulk load builds the same table as op-by-op writes. *)
  let rules = Dataset.generate Dataset.ACL4 ~seed:31 ~n:200 in
  let placed = Array.mapi (fun i (r : Rule.t) -> (r.Rule.id, (3 * i) + 1)) rules in
  let by_id id = Array.find_opt (fun (r : Rule.t) -> r.Rule.id = id) rules in
  let bulk = Tcam.create ~size:700 in
  Tcam.load ~payload:by_id bulk placed;
  let step = Tcam.create ~size:700 in
  Array.iter
    (fun (id, addr) ->
      Option.iter (Tcam.bind_rule step) (by_id id);
      Tcam.write step ~rule_id:id ~addr)
    placed;
  let slots t = Image.fold (Tcam.image t) ~init:[] ~f:(fun acc ~addr ~rule_id -> (addr, rule_id) :: acc) in
  check "same slots" true (slots bulk = slots step);
  check_int "load counts no ops" 0 (Tcam.ops_issued bulk);
  check "bulk consistent" true (Result.is_ok (Tcam.image_consistent bulk));
  let rng = Rng.create ~seed:32 in
  Array.iter
    (fun (r : Rule.t) ->
      let pkt = Header.packet_in rng r.Rule.field in
      check "same answer" true
        (Image.lookup_id (Tcam.image bulk) pkt = Image.lookup_id (Tcam.image step) pkt))
    rules

(* --- differential lookup ------------------------------------------------ *)

(* The packet whose header bits are the low 104 bits of [b]. *)
let packet_of_bits (b : int64 array) =
  let field ~lo ~len =
    let v = ref 0L in
    for k = len - 1 downto 0 do
      let p = lo + k in
      let c = if p < 64 then b.(0) else b.(1) in
      v :=
        Int64.logor (Int64.shift_left !v 1)
          (Int64.logand (Int64.shift_right_logical c (p land 63)) 1L)
    done;
    !v
  in
  {
    Header.p_proto = Int64.to_int (field ~lo:0 ~len:8);
    p_dst_port = Int64.to_int (field ~lo:8 ~len:16);
    p_src_port = Int64.to_int (field ~lo:24 ~len:16);
    p_dst_ip = field ~lo:40 ~len:32;
    p_src_ip = field ~lo:72 ~len:32;
  }

(* A packet agreeing with a member of [field] on its low bits, random
   above them. *)
let packet_near rng field =
  let b = Header.packet_bits (Header.random_packet rng) in
  let ex = Ternary.random_exact_in rng field in
  for k = 0 to min (Ternary.width field) 104 - 1 do
    let c = k / 64 and bit = Int64.shift_left 1L (k land 63) in
    let want = Int64.logand ex.(c) bit <> 0L in
    b.(c) <- (if want then Int64.logor b.(c) bit else Int64.logand b.(c) (Int64.lognot bit))
  done;
  packet_of_bits b

(* Mostly wildcards so random packets hit; fields wider than 104 bits get
   a top part of '0'/'*' with the odd '1', which no packet can match. *)
let random_field rng width =
  let bit () =
    match Rng.int rng 10 with 0 | 1 -> '0' | 2 | 3 -> '1' | _ -> '*'
  in
  let top () = match Rng.int rng 20 with 0 -> '1' | k when k < 8 -> '0' | _ -> '*' in
  let low = min width 104 in
  let s = String.init (width - low) (fun _ -> top ()) ^ String.init low (fun _ -> bit ()) in
  Ternary.of_string s

type case = { size : int; width : int; seed : int }

let check_case { size; width; seed } =
  let rng = Rng.create ~seed in
  (* Chunk edges (16- and 32-slot multiples) and the last slot always
     take part; random addresses fill up to a third of the table. *)
  let edges = List.filter (fun a -> a < size) [ 0; 15; 16; 31; 32; size - 1 ] in
  let addrs = Hashtbl.create 64 in
  List.iter (fun a -> Hashtbl.replace addrs a ()) edges;
  for _ = 1 to size / 3 do
    Hashtbl.replace addrs (Rng.int rng size) ()
  done;
  let addrs = List.sort compare (Hashtbl.fold (fun a () acc -> a :: acc) addrs []) in
  let rules =
    List.mapi
      (fun id _ ->
        Rule.make ~id ~field:(random_field rng width) ~action:(Rule.Forward id)
          ~priority:0)
      addrs
  in
  let rule id = List.nth rules id in
  let t = Tcam.create ~size in
  (* One id in five stays unbound while placed; bulk-load or write one by
     one, then move a few entries to free slots and erase a few. *)
  let bound = Array.init (List.length rules) (fun _ -> Rng.int rng 5 > 0) in
  let placed = Array.of_list (List.mapi (fun id a -> (id, a)) addrs) in
  if Rng.bool rng then
    Tcam.load t placed ~payload:(fun id -> if bound.(id) then Some (rule id) else None)
  else
    Array.iter
      (fun (id, a) ->
        if bound.(id) then Tcam.bind_rule t (rule id);
        Tcam.write t ~rule_id:id ~addr:a)
      placed;
  for _ = 1 to 4 do
    let id = Rng.int rng (List.length rules) in
    match (Tcam.addr_of t id, Tcam.lowest_free t) with
    | Some _, Some free when Rng.bool rng -> Tcam.write t ~rule_id:id ~addr:free
    | Some a, _ -> Tcam.erase t ~addr:a
    | None, _ -> ()
  done;
  (* Bound but never placed: must never answer. *)
  let ghost =
    Rule.make ~id:10_000 ~field:(Ternary.any width) ~action:Rule.Drop ~priority:0
  in
  Tcam.bind_rule t ghost;
  let img = Tcam.image t in
  (* The reference: a bit-by-bit scan of the table with unbound entries
     erased (they hold a slot but never match). *)
  let reference = Tcam.copy t in
  Array.iter
    (fun (id, _) ->
      match Tcam.addr_of reference id with
      | Some a when not bound.(id) -> Tcam.erase reference ~addr:a
      | _ -> ())
    placed;
  let backend = if width > 64 then Some (Backend.of_image img) else None in
  let packets =
    List.map (fun (r : Rule.t) -> packet_near rng r.Rule.field) rules
    @ List.init 16 (fun _ -> Header.random_packet rng)
  in
  let answers = List.map (fun pkt -> Tcam.lookup reference ~rules:rule pkt) packets in
  (* Not vacuous: a packet drawn near a bound entry's field hits
     something (fields wider than 104 bits may require bits no packet
     has). *)
  let any_bound = Tcam.used_count reference > 0 in
  Result.is_ok (Tcam.image_consistent t)
  && (width > 104 || (not any_bound) || List.exists Option.is_some answers)
  && List.for_all2
       (fun pkt want ->
         Image.lookup_id img pkt = want
         &&
         match backend with
         | Some b ->
             Option.map (fun (r : Rule.t) -> r.Rule.id) (Backend.lookup b pkt) = want
         | None -> true)
       packets answers

let prop_lookup_differential =
  QCheck.Test.make ~name:"image lookup = reference scan = backend" ~count:300
    (QCheck.make
       ~print:(fun c -> Printf.sprintf "size=%d width=%d seed=%d" c.size c.width c.seed)
       QCheck.Gen.(
         map3
           (fun size width seed -> { size; width; seed })
           (oneofl [ 1; 2; 15; 16; 17; 31; 32; 33; 47; 100; 511; 512; 513; 700 ])
           (oneofl [ 8; 40; 64; 65; 104; 104; 104; 126 ])
           (int_bound 1_000_000)))
    check_case

(* The index against a linear scan: random write/move/erase/touch
   sequences over rules drawn from a small field pool (so equal fields sit
   at several addresses), one payload in five unbound, growing past
   [Image.index_min] entries, shrinking below half of it and growing
   again, so the index is built, edited and dropped. *)
let scan_lookup img pkt =
  let rec go a =
    if a < 0 then None
    else
      match Image.rule_at img a with
      | Some r when Rule.matches_packet r pkt -> Some r.Rule.id
      | _ -> go (a - 1)
  in
  go (Image.size img - 1)

let check_index_walk seed =
  let rng = Rng.create ~seed in
  let pool = Dataset.generate Dataset.FW5 ~seed ~n:40 in
  let size = 600 and hi = Image.index_min + 40 and lo = (Image.index_min / 2) - 20 in
  let next_id = ref 0 in
  let fresh () =
    incr next_id;
    let f = pool.(Rng.int rng (Array.length pool)) in
    let r = Rule.make ~id:!next_id ~field:f.Rule.field ~action:(Rule.Forward 1) ~priority:0 in
    (r.Rule.id, if Rng.int rng 5 = 0 then None else Some r)
  in
  let free img =
    let rec go k = let a = Rng.int rng size in if Image.is_free img a || k = 0 then a else go (k - 1) in
    go 50
  in
  let used img =
    let n = Image.entry_count img in
    if n = 0 then None
    else
      let k = Rng.int rng n in
      Image.fold img ~init:(None, 0) ~f:(fun (found, i) ~addr ~rule_id:_ ->
          ((if i = k then Some addr else found), i + 1))
      |> fst
  in
  let ok = ref true and saw_index = ref false and saw_drop = ref false in
  let indexed = ref false in
  let check img =
    let n = Image.entry_count img in
    (* Built at [index_min] entries, dropped below half of it. *)
    let want = n >= Image.index_min || (!indexed && 2 * n >= Image.index_min) in
    if !indexed && not want then saw_drop := true;
    indexed := want;
    if want then saw_index := true;
    ok := !ok && Image.indexed img = want;
    for _ = 1 to 3 do
      let pkt =
        if Rng.int rng 4 = 0 then Header.random_packet rng
        else Header.packet_in rng pool.(Rng.int rng (Array.length pool)).Rule.field
      in
      ok := !ok && Image.lookup_id img pkt = scan_lookup img pkt
    done
  in
  let step img ~grow =
    let img =
      match (Rng.int rng 10, used img) with
      | (0 | 1 | 2 | 3), _ when grow ->
          let id, r = fresh () in
          Image.write img ~addr:(free img) ~id r
      | (0 | 1 | 2 | 3), Some a -> Image.erase img ~addr:a
      | (4 | 5), Some a -> (
          (* A move with the occupant's own payload, or with another. *)
          match Image.read img a with
          | Image.Used id ->
              let r = if Rng.bool rng then Image.rule_at img a else snd (fresh ()) in
              Image.move img ~src:a ~dst:(free img) ~id r
          | Image.Free -> img)
      | 6, Some a -> (
          (* An action rewrite in place, or an unbind. *)
          match (Image.read img a, Image.rule_at img a) with
          | Image.Used id, Some r when Rng.bool rng ->
              Image.write img ~addr:a ~id (Some (Rule.with_action r Rule.Drop))
          | Image.Used id, _ -> Image.write img ~addr:a ~id None
          | Image.Free, _ -> img)
      | 7, _ -> Image.touch img
      | _, _ ->
          (* Overwrite any slot, free or not, with a fresh entry. *)
          let id, r = fresh () in
          Image.write img ~addr:(Rng.int rng size) ~id r
    in
    check img;
    img
  in
  let rec grow img = if Image.entry_count img >= hi then img else grow (step img ~grow:true) in
  let rec shrink img = if Image.entry_count img < lo then img else shrink (step img ~grow:false) in
  let img = grow (Image.create ~size) in
  let img = shrink img in
  ignore (grow img);
  !ok && !saw_index && !saw_drop

let prop_index_vs_scan =
  QCheck.Test.make ~name:"index lookup = linear scan across the cutoff" ~count:25
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    check_index_walk

let test_readers_race_writer () =
  (* Four wait-free reader domains hammer the published pointer while the
     writer churns slots.  Each reader checks it only ever observes fully
     bound, monotonically-published snapshots. *)
  let rules = Array.init 64 (fun i -> mk i (8 + (i mod 16)) 24 (Int64.of_int (i * 256))) in
  let t = Tcam.create ~size:128 in
  let published = Atomic.make (Tcam.image t) in
  Tcam.set_publisher t (Some (fun img -> Atomic.set published img));
  let stop = Atomic.make false in
  let reader () =
    let rng = Rng.create ~seed:(Domain.self () :> int) in
    let last_epoch = ref (-1) in
    let bad = ref 0 in
    let reads = ref 0 in
    while (not (Atomic.get stop)) || !reads < 200 do
      incr reads;
      let img = Atomic.get published in
      let e = Image.epoch img in
      if e < !last_epoch then incr bad;
      last_epoch := e;
      (* Every slot in a published snapshot must resolve its payload:
         binds happen before writes, unbinds after erases. *)
      Image.iter img (fun ~addr ~rule_id:_ ->
          if Image.rule_at img addr = None then incr bad);
      let pkt = Header.packet_in rng rules.(Rng.int rng 64).Rule.field in
      (match Image.lookup img pkt with
      | Some r ->
          if Image.find_last img (fun id -> id = r.Rule.id) = None then incr bad
      | None -> ());
      if !reads land 63 = 0 then Domain.cpu_relax ()
    done;
    !bad
  in
  let readers = List.init 4 (fun _ -> Domain.spawn reader) in
  for round = 0 to 5 do
    (* Bounce every rule between two disjoint address banks so a move's
       target slot is always free, then retire a third of them. *)
    let bank = if round land 1 = 0 then 0 else 64 in
    Array.iteri
      (fun i r ->
        Tcam.bind_rule t r;
        Tcam.write t ~rule_id:i ~addr:(bank + i))
      rules;
    Array.iteri
      (fun i _ ->
        if i mod 3 = round mod 3 then begin
          match Tcam.addr_of t i with
          | Some a ->
              Tcam.erase t ~addr:a;
              Tcam.unbind_rule t ~id:i
          | None -> ()
        end)
      rules
  done;
  Atomic.set stop true;
  let bad = List.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
  check_int "no torn or stale snapshot observed" 0 bad;
  check "writer image still consistent" true
    (Result.is_ok (Tcam.image_consistent t))

let suite =
  [
    ( "image",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "persistence" `Quick test_persistence;
        Alcotest.test_case "move vacates old slot" `Quick test_move_vacates;
        Alcotest.test_case "unbound payloads skipped" `Quick test_unbound_skipped;
        Alcotest.test_case "tcam publishes per op" `Quick test_tcam_publishes;
        Alcotest.test_case "epoch per op" `Quick test_epoch_per_op;
        Alcotest.test_case "copy does not publish" `Quick test_copy_does_not_publish;
        Alcotest.test_case "publish allocation bound" `Quick
          test_publish_allocation_bound;
        Alcotest.test_case "4 readers race a writer" `Quick
          test_readers_race_writer;
        Alcotest.test_case "consistency check catches a bad index" `Quick
          test_consistency_catches_bad_index;
        Alcotest.test_case "bulk load = op-by-op writes" `Quick
          test_load_matches_writes;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_lookup_differential; prop_index_vs_scan ] );
  ]
