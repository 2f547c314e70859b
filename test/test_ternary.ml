open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let t = Ternary.of_string

let test_roundtrip () =
  List.iter
    (fun s -> check_str s s (Ternary.to_string (t s)))
    [ "0"; "1"; "*"; "10*1"; "****"; "0101"; "1*0*1*0*"; String.make 100 '*' ]

let test_of_string_rejects () =
  Alcotest.check_raises "bad char" (Invalid_argument "Ternary.of_string: expected '0', '1' or '*'")
    (fun () -> ignore (t "10x"));
  Alcotest.check_raises "empty" (Invalid_argument "Ternary.of_string: empty string")
    (fun () -> ignore (t ""))

let test_get_set () =
  let x = t "10*" in
  check "bit2 one" true (Ternary.get x 2 = Ternary.One);
  check "bit1 zero" true (Ternary.get x 1 = Ternary.Zero);
  check "bit0 any" true (Ternary.get x 0 = Ternary.Any);
  let y = Ternary.set x 0 Ternary.One in
  check_str "set" "101" (Ternary.to_string y);
  check_str "orig unchanged" "10*" (Ternary.to_string x)

let test_exact_prefix () =
  let e = Ternary.exact_of_int64 ~width:8 0xA5L in
  check_str "exact" "10100101" (Ternary.to_string e);
  check "is_exact" true (Ternary.is_exact e);
  let p = Ternary.prefix_of_int64 ~width:8 ~plen:4 0xA5L in
  check_str "prefix" "1010****" (Ternary.to_string p);
  check_int "wildcards" 4 (Ternary.num_wildcards p);
  let z = Ternary.prefix_of_int64 ~width:8 ~plen:0 0xFFL in
  check_str "plen0" "********" (Ternary.to_string z)

let test_overlap_basic () =
  (* The Fig. 1 example alphabet: three match items; we encode each item
     with 2 bits (A=00, B=01, C=10) so "C*A" etc. become 6-bit strings. *)
  let caa = t "100000" and c_a = t "10**00" and any_a = t "****00" in
  let a_b = t "00**01" and any_b = t "****01" and all = t "******" in
  check "CAA in C*A" true (Ternary.subsumes c_a caa);
  check "C*A in **A" true (Ternary.subsumes any_a c_a);
  check "A*B in **B" true (Ternary.subsumes any_b a_b);
  check "C*A !in **B" false (Ternary.overlaps c_a any_b);
  check "all overlaps everything" true (Ternary.overlaps all caa);
  check "**A and **B disjoint" false (Ternary.overlaps any_a any_b)

let test_overlap_symmetry () =
  let a = t "1*0*" and b = t "*10*" and c = t "0***" in
  check "a~b" true (Ternary.overlaps a b && Ternary.overlaps b a);
  check "a!~c" false (Ternary.overlaps a c || Ternary.overlaps c a)

let test_subsumes_strictness () =
  let broad = t "1***" and narrow = t "10*1" in
  check "broad covers narrow" true (Ternary.subsumes broad narrow);
  check "narrow not covers broad" false (Ternary.subsumes narrow broad);
  check "self" true (Ternary.subsumes broad broad)

let test_intersect () =
  let a = t "1**0" and b = t "*01*" in
  (match Ternary.intersect a b with
  | Some i -> check_str "intersection" "1010" (Ternary.to_string i)
  | None -> Alcotest.fail "expected overlap");
  check "disjoint" true (Ternary.intersect (t "11") (t "00") = None)

let test_width_mismatch () =
  Alcotest.check_raises "overlaps width"
    (Invalid_argument "Ternary.overlaps: width mismatch") (fun () ->
      ignore (Ternary.overlaps (t "1") (t "11")))

let test_matches_value () =
  let x = t "1*0" in
  check "101 no" false (Ternary.matches_value x [| 0b101L |]);
  check "100 yes" true (Ternary.matches_value x [| 0b100L |]);
  check "110 yes" true (Ternary.matches_value x [| 0b110L |]);
  check "010 no" false (Ternary.matches_value x [| 0b010L |])

let test_concat_slice () =
  let hi = t "10" and lo = t "0*1" in
  let c = Ternary.concat hi lo in
  check_str "concat" "100*1" (Ternary.to_string c);
  check_str "slice hi" "10" (Ternary.to_string (Ternary.slice c ~lo:3 ~len:2));
  check_str "slice lo" "0*1" (Ternary.to_string (Ternary.slice c ~lo:0 ~len:3))

let test_wide_strings () =
  (* Cross the 64-bit chunk boundary. *)
  let s = String.concat "" [ String.make 60 '1'; "0*01"; String.make 40 '*' ] in
  let x = t s in
  check_int "width" 104 (Ternary.width x);
  check_str "roundtrip" s (Ternary.to_string x);
  check_int "wildcards" 41 (Ternary.num_wildcards x);
  let y = Ternary.set x 103 Ternary.Zero in
  check "msb changed" true (Ternary.get y 103 = Ternary.Zero);
  check "no longer overlaps" false (Ternary.overlaps x y)

let test_compare_equal_hash () =
  let a = t "10*" and b = t "10*" and c = t "1*0" in
  check "equal" true (Ternary.equal a b);
  check_int "compare eq" 0 (Ternary.compare a b);
  check "hash eq" true (Ternary.hash a = Ternary.hash b);
  check "neq" false (Ternary.equal a c);
  check "compare antisym" true
    (Ternary.compare a c = -Ternary.compare c a)

let test_random_exact_in () =
  let rng = Rng.create ~seed:7 in
  let x = t "1*0*1***" in
  for _ = 1 to 100 do
    let v = Ternary.random_exact_in rng x in
    check "member" true (Ternary.matches_value x v)
  done

let test_random_respects_width () =
  let rng = Rng.create ~seed:9 in
  for w = 1 to 70 do
    let x = Ternary.random rng ~width:w ~wildcard_prob:0.5 in
    check_int "width" w (Ternary.width x)
  done

(* --- word-level constructors against a bit-at-a-time reference -------- *)

(* The reference builds every value one position at a time with [get] and
   [set], the way the constructors used to. *)
module Bitwise = struct
  let copy_into r ~at t =
    let r = ref r in
    for i = 0 to Ternary.width t - 1 do
      r := Ternary.set !r (at + i) (Ternary.get t i)
    done;
    !r

  let concat hi lo =
    let r = Ternary.any (Ternary.width hi + Ternary.width lo) in
    copy_into (copy_into r ~at:0 lo) ~at:(Ternary.width lo) hi

  let slice t ~lo ~len =
    let r = ref (Ternary.any len) in
    for i = 0 to len - 1 do
      r := Ternary.set !r i (Ternary.get t (lo + i))
    done;
    !r

  let of_string s =
    let w = String.length s in
    let r = ref (Ternary.any w) in
    String.iteri
      (fun pos ch ->
        let b = match ch with '0' -> Ternary.Zero | '1' -> Ternary.One | _ -> Ternary.Any in
        r := Ternary.set !r (w - 1 - pos) b)
      s;
    !r

  let random rng ~width ~wildcard_prob =
    let r = ref (Ternary.any width) in
    for i = 0 to width - 1 do
      if not (Rng.chance rng wildcard_prob) then
        r := Ternary.set !r i (if Rng.bool rng then Ternary.One else Ternary.Zero)
    done;
    !r

  let pack (f : Header.field_spec) =
    concat f.Header.src_ip
      (concat f.Header.dst_ip
         (concat f.Header.src_port (concat f.Header.dst_port f.Header.proto)))

  let unpack t =
    {
      Header.proto = slice t ~lo:0 ~len:8;
      dst_port = slice t ~lo:8 ~len:16;
      src_port = slice t ~lo:24 ~len:16;
      dst_ip = slice t ~lo:40 ~len:32;
      src_ip = slice t ~lo:72 ~len:32;
    }

  let set_bits chunks ~lo ~len v =
    for i = 0 to len - 1 do
      if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then begin
        let pos = lo + i in
        chunks.(pos / 64) <-
          Int64.logor chunks.(pos / 64) (Int64.shift_left 1L (pos land 63))
      end
    done

  let packet_bits (p : Header.packet) =
    let chunks = Array.make 2 0L in
    set_bits chunks ~lo:0 ~len:8 (Int64.of_int p.Header.p_proto);
    set_bits chunks ~lo:8 ~len:16 (Int64.of_int p.Header.p_dst_port);
    set_bits chunks ~lo:24 ~len:16 (Int64.of_int p.Header.p_src_port);
    set_bits chunks ~lo:40 ~len:32 p.Header.p_dst_ip;
    set_bits chunks ~lo:72 ~len:32 p.Header.p_src_ip;
    chunks

  let bits_in chunks ~lo ~len =
    let v = ref 0L in
    for i = len - 1 downto 0 do
      let pos = lo + i in
      let bit =
        Int64.logand (Int64.shift_right_logical chunks.(pos / 64) (pos land 63)) 1L
      in
      v := Int64.logor (Int64.shift_left !v 1) bit
    done;
    !v

  let packet_in rng field =
    let c = Ternary.random_exact_in rng field in
    {
      Header.p_proto = Int64.to_int (bits_in c ~lo:0 ~len:8);
      p_dst_port = Int64.to_int (bits_in c ~lo:8 ~len:16);
      p_src_port = Int64.to_int (bits_in c ~lo:24 ~len:16);
      p_dst_ip = bits_in c ~lo:40 ~len:32;
      p_src_ip = bits_in c ~lo:72 ~len:32;
    }
end

let tstring rng w =
  String.init w (fun _ -> match Rng.int rng 3 with 0 -> '0' | 1 -> '1' | _ -> '*')

(* Widths cluster around the chunk edges at 64 and 128. *)
let random_width rng =
  match Rng.int rng 4 with
  | 0 -> 1 + Rng.int rng 200
  | k -> max 1 ((64 * k) - 3 + Rng.int rng 7)

let same what a b =
  if not (Ternary.equal a b && Ternary.to_string a = Ternary.to_string b) then
    QCheck.Test.fail_reportf "%s: %s <> %s" what (Ternary.to_string a)
      (Ternary.to_string b)

let random_packet rng =
  (* Out-of-range field values too: only each field's own bits count. *)
  let field bits = if Rng.int rng 4 = 0 then Rng.int rng max_int - (max_int / 2) else Rng.int rng (1 lsl bits) in
  {
    Header.p_src_ip = Rng.bits64 rng;
    p_dst_ip = (if Rng.bool rng then Rng.bits64 rng else Int64.of_int (Rng.int rng (1 lsl 30)));
    p_src_port = field 16;
    p_dst_port = field 16;
    p_proto = field 8;
  }

let prop_word_level_matches_bitwise =
  QCheck.Test.make ~count:300 ~name:"word-level = bit-at-a-time reference"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create ~seed in
      let wa = random_width rng and wb = random_width rng in
      let sa = tstring rng wa and sb = tstring rng wb in
      let a = Ternary.of_string sa and b = Ternary.of_string sb in
      same "of_string" a (Bitwise.of_string sa);
      same "concat" (Ternary.concat a b) (Bitwise.concat a b);
      same "concat_list"
        (Ternary.concat_list [ b; a; b ])
        (Bitwise.concat b (Bitwise.concat a b));
      let c = Ternary.concat a b in
      let lo = Rng.int rng (wa + wb) in
      let len = 1 + Rng.int rng (wa + wb - lo) in
      same "slice" (Ternary.slice c ~lo ~len) (Bitwise.slice c ~lo ~len);
      let wildcard_prob = Rng.float rng in
      same "random"
        (Ternary.random (Rng.create ~seed) ~width:wa ~wildcard_prob)
        (Bitwise.random (Rng.create ~seed) ~width:wa ~wildcard_prob);
      let spec =
        {
          Header.src_ip = Ternary.of_string (tstring rng 32);
          dst_ip = Ternary.of_string (tstring rng 32);
          src_port = Ternary.of_string (tstring rng 16);
          dst_port = Ternary.of_string (tstring rng 16);
          proto = Ternary.of_string (tstring rng 8);
        }
      in
      let field = Header.pack spec in
      same "pack" field (Bitwise.pack spec);
      let u = Header.unpack field and u' = Bitwise.unpack field in
      same "unpack src_ip" u.Header.src_ip u'.Header.src_ip;
      same "unpack dst_ip" u.Header.dst_ip u'.Header.dst_ip;
      same "unpack src_port" u.Header.src_port u'.Header.src_port;
      same "unpack dst_port" u.Header.dst_port u'.Header.dst_port;
      same "unpack proto" u.Header.proto u'.Header.proto;
      let p = random_packet rng in
      let bits = Header.packet_bits p in
      if bits <> Bitwise.packet_bits p then QCheck.Test.fail_report "packet_bits";
      let half = (1 lsl 62) - 1 in
      if Header.packet_lo p <> Int64.to_int bits.(0) land half then
        QCheck.Test.fail_report "packet_lo";
      if
        Header.packet_hi p
        <> (Int64.to_int (Int64.shift_right_logical bits.(0) 62)
           lor (Int64.to_int bits.(1) lsl 2))
           land half
      then QCheck.Test.fail_report "packet_hi";
      if Header.packet_in (Rng.create ~seed) field <> Bitwise.packet_in (Rng.create ~seed) field
      then QCheck.Test.fail_report "packet_in";
      true)

(* The key [Rule.make] computes, against the two private splits it
   replaced: the TCAM image's (any width; a value 1 from position 124 up
   gives [min_int]) and the overlap index's (104-bit fields). *)
let image_key (r : Rule.t) =
  let v, m = Ternary.unsafe_chunks r.Rule.field in
  let half = (1 lsl 62) - 1 in
  let lo c = Int64.to_int c land half in
  let hi c0 c1 =
    (Int64.to_int (Int64.shift_right_logical c0 62) lor (Int64.to_int c1 lsl 2)) land half
  in
  let get a k = if k < Array.length a then a.(k) else 0L in
  let beyond = ref (Int64.shift_right_logical (get v 1) 60 <> 0L) in
  for k = 2 to Array.length v - 1 do
    if v.(k) <> 0L then beyond := true
  done;
  [| (if !beyond then min_int else lo (get v 0)); lo (get m 0); hi (get v 0) (get v 1);
     hi (get m 0) (get m 1) |]

let index_key (r : Rule.t) =
  let v, m = Ternary.unsafe_chunks r.Rule.field in
  let half = (1 lsl 62) - 1 in
  let lo c = Int64.to_int c land half in
  let hi c0 c1 =
    (Int64.to_int (Int64.shift_right_logical c0 62) lor (Int64.to_int c1 lsl 2)) land half
  in
  [| lo v.(0); lo m.(0); hi v.(0) v.(1); hi m.(0) m.(1) |]

let test_rule_key () =
  let key (r : Rule.t) = [| r.Rule.lo_value; r.lo_mask; r.hi_value; r.hi_mask |] in
  let rng = Rng.create ~seed:5 in
  let narrow =
    Array.init 200 (fun id ->
        Rule.make ~id ~field:(Ternary.random rng ~width:10 ~wildcard_prob:0.3)
          ~action:Rule.Drop ~priority:0)
  in
  let wide =
    Array.init 200 (fun id ->
        Rule.make ~id ~field:(Ternary.of_string (tstring rng (105 + Rng.int rng 90)))
          ~action:Rule.Drop ~priority:0)
  in
  List.iter
    (fun (what, rules, tuples) ->
      Array.iter
        (fun (r : Rule.t) ->
          check (what ^ ": image key") true (key r = image_key r);
          if tuples then check (what ^ ": index key") true (key r = index_key r))
        rules)
    [
      ("FW5", Dataset.generate Dataset.FW5 ~seed:3 ~n:2000, true);
      ("ACL4", Dataset.generate Dataset.ACL4 ~seed:3 ~n:2000, true);
      ("10-bit", narrow, false);
      ("wider than 104", wide, false);
    ];
  check "some wide field needs a bit no packet has" true
    (Array.exists (fun (r : Rule.t) -> r.Rule.lo_value = min_int) wide)

let suite =
  [
    ( "ternary",
      [
        Alcotest.test_case "string roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "of_string rejects garbage" `Quick test_of_string_rejects;
        Alcotest.test_case "get/set" `Quick test_get_set;
        Alcotest.test_case "exact & prefix constructors" `Quick test_exact_prefix;
        Alcotest.test_case "fig1-style overlap" `Quick test_overlap_basic;
        Alcotest.test_case "overlap symmetry" `Quick test_overlap_symmetry;
        Alcotest.test_case "subsumption strictness" `Quick test_subsumes_strictness;
        Alcotest.test_case "intersection" `Quick test_intersect;
        Alcotest.test_case "width mismatch rejected" `Quick test_width_mismatch;
        Alcotest.test_case "matches_value" `Quick test_matches_value;
        Alcotest.test_case "concat/slice" `Quick test_concat_slice;
        Alcotest.test_case "multi-chunk widths" `Quick test_wide_strings;
        Alcotest.test_case "equal/compare/hash" `Quick test_compare_equal_hash;
        Alcotest.test_case "random member sampling" `Quick test_random_exact_in;
        Alcotest.test_case "random widths" `Quick test_random_respects_width;
        QCheck_alcotest.to_alcotest prop_word_level_matches_bitwise;
        Alcotest.test_case "rule key = old image/index keys" `Quick test_rule_key;
      ] );
  ]
