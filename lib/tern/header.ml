(* Field packing layout (bit 0 = least significant position of the 104-bit
   match field):

     proto     bits   0 ..   7
     dst_port  bits   8 ..  23
     src_port  bits  24 ..  39
     dst_ip    bits  40 ..  71
     src_ip    bits  72 .. 103 *)

let total_width = 104

type field_spec = {
  src_ip : Ternary.t;
  dst_ip : Ternary.t;
  src_port : Ternary.t;
  dst_port : Ternary.t;
  proto : Ternary.t;
}

let check_width name w t =
  if Ternary.width t <> w then
    invalid_arg (Printf.sprintf "Header: field %s must be %d bits wide" name w)

let pack f =
  check_width "src_ip" 32 f.src_ip;
  check_width "dst_ip" 32 f.dst_ip;
  check_width "src_port" 16 f.src_port;
  check_width "dst_port" 16 f.dst_port;
  check_width "proto" 8 f.proto;
  Ternary.concat_list [ f.src_ip; f.dst_ip; f.src_port; f.dst_port; f.proto ]

let unpack t =
  if Ternary.width t <> total_width then
    invalid_arg "Header.unpack: expected a 104-bit match field";
  {
    proto = Ternary.slice t ~lo:0 ~len:8;
    dst_port = Ternary.slice t ~lo:8 ~len:16;
    src_port = Ternary.slice t ~lo:24 ~len:16;
    dst_ip = Ternary.slice t ~lo:40 ~len:32;
    src_ip = Ternary.slice t ~lo:72 ~len:32;
  }

let wildcard =
  {
    src_ip = Ternary.any 32;
    dst_ip = Ternary.any 32;
    src_port = Ternary.any 16;
    dst_port = Ternary.any 16;
    proto = Ternary.any 8;
  }

type packet = {
  p_src_ip : int64;
  p_dst_ip : int64;
  p_src_port : int;
  p_dst_port : int;
  p_proto : int;
}

let mask32 = 0xFFFFFFFFL

(* Each field keeps only its own width, as a packet on the wire would. *)
let packet_bits p =
  let ip v = Int64.logand v mask32 in
  let low v bits = Int64.of_int (v land ((1 lsl bits) - 1)) in
  let dst = ip p.p_dst_ip in
  [|
    Int64.logor
      (Int64.logor (low p.p_proto 8) (Int64.shift_left (low p.p_dst_port 16) 8))
      (Int64.logor
         (Int64.shift_left (low p.p_src_port 16) 24)
         (Int64.shift_left dst 40));
    Int64.logor (Int64.shift_right_logical dst 24) (Int64.shift_left (ip p.p_src_ip) 8);
  |]

let packet_lo p =
  p.p_proto land 0xFF
  lor ((p.p_dst_port land 0xFFFF) lsl 8)
  lor ((p.p_src_port land 0xFFFF) lsl 24)
  lor ((Int64.to_int p.p_dst_ip land 0x3F_FFFF) lsl 40)

let packet_hi p =
  ((Int64.to_int p.p_dst_ip lsr 22) land 0x3FF)
  lor ((Int64.to_int p.p_src_ip land 0xFFFF_FFFF) lsl 10)

let random_packet rng =
  {
    p_src_ip = Int64.logand (Fr_prng.Rng.bits64 rng) mask32;
    p_dst_ip = Int64.logand (Fr_prng.Rng.bits64 rng) mask32;
    p_src_port = Fr_prng.Rng.int rng 65536;
    p_dst_port = Fr_prng.Rng.int rng 65536;
    p_proto = Fr_prng.Rng.int rng 256;
  }

(* The [len] (at most 32) positions from [lo] up. *)
let bits_in chunks ~lo ~len =
  let c = lo lsr 6 and b = lo land 63 in
  let w = Int64.shift_right_logical chunks.(c) b in
  let w =
    if b + len > 64 then Int64.logor w (Int64.shift_left chunks.(c + 1) (64 - b)) else w
  in
  Int64.logand w (Int64.sub (Int64.shift_left 1L len) 1L)

let packet_in rng field =
  if Ternary.width field <> total_width then
    invalid_arg "Header.packet_in: expected a 104-bit match field";
  let chunks = Ternary.random_exact_in rng field in
  {
    p_proto = Int64.to_int (bits_in chunks ~lo:0 ~len:8);
    p_dst_port = Int64.to_int (bits_in chunks ~lo:8 ~len:16);
    p_src_port = Int64.to_int (bits_in chunks ~lo:24 ~len:16);
    p_dst_ip = bits_in chunks ~lo:40 ~len:32;
    p_src_ip = bits_in chunks ~lo:72 ~len:32;
  }

let pp_field ppf f =
  Format.fprintf ppf "src=%a dst=%a sport=%a dport=%a proto=%a" Ternary.pp
    f.src_ip Ternary.pp f.dst_ip Ternary.pp f.src_port Ternary.pp f.dst_port
    Ternary.pp f.proto

let pp_packet ppf p =
  Format.fprintf ppf "src=%Lx dst=%Lx sport=%d dport=%d proto=%d" p.p_src_ip
    p.p_dst_ip p.p_src_port p.p_dst_port p.p_proto
