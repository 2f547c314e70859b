type t = {
  n : int;
  m : int;
  n_components : int;
  c_max : int;
  c_avg : float;
  d_in : float;
  max_out_degree : int;
  max_in_degree : int;
}

(* Union-find over node ids (hashtable-backed: ids are sparse). *)
module Uf = struct
  type t = { parent : (int, int) Hashtbl.t; rank : (int, int) Hashtbl.t }

  let create () = { parent = Hashtbl.create 64; rank = Hashtbl.create 64 }

  let ensure uf x =
    if not (Hashtbl.mem uf.parent x) then begin
      Hashtbl.replace uf.parent x x;
      Hashtbl.replace uf.rank x 0
    end

  let rec find uf x =
    let p = Hashtbl.find uf.parent x in
    if p = x then x
    else begin
      let r = find uf p in
      Hashtbl.replace uf.parent x r;
      r
    end

  let union uf x y =
    ensure uf x;
    ensure uf y;
    let rx = find uf x and ry = find uf y in
    if rx <> ry then begin
      let kx = Hashtbl.find uf.rank rx and ky = Hashtbl.find uf.rank ry in
      if kx < ky then Hashtbl.replace uf.parent rx ry
      else if kx > ky then Hashtbl.replace uf.parent ry rx
      else begin
        Hashtbl.replace uf.parent ry rx;
        Hashtbl.replace uf.rank rx (kx + 1)
      end
    end
end

let build_uf g =
  let uf = Uf.create () in
  Graph.iter_nodes g (fun u ->
      Uf.ensure uf u;
      Graph.iter_deps g u (fun v -> Uf.union uf u v));
  uf

let components g =
  let uf = build_uf g in
  let groups = Hashtbl.create 64 in
  Graph.iter_nodes g (fun u ->
      let r = Uf.find uf u in
      let cur = Option.value (Hashtbl.find_opt groups r) ~default:[] in
      Hashtbl.replace groups r (u :: cur));
  Hashtbl.fold (fun _ nodes acc -> nodes :: acc) groups []

let compute g =
  let n = Graph.n_nodes g and m = Graph.n_edges g in
  if n = 0 then
    {
      n = 0;
      m = 0;
      n_components = 0;
      c_max = 0;
      c_avg = 0.0;
      d_in = 0.0;
      max_out_degree = 0;
      max_in_degree = 0;
    }
  else begin
    let uf = build_uf g in
    (* Longest chain ending at each node, then fold maxima per component. *)
    let order =
      match Topo.toposort g with
      | Some o -> o
      | None -> invalid_arg "Stats.compute: graph has a cycle"
    in
    let chain = Hashtbl.create n in
    List.iter
      (fun u ->
        let d =
          Graph.fold_deps g u ~init:0 ~f:(fun acc v ->
              max acc (Hashtbl.find chain v))
        in
        Hashtbl.replace chain u (d + 1))
      (List.rev order);
    let comp_diam = Hashtbl.create 64 in
    Graph.iter_nodes g (fun u ->
        let r = Uf.find uf u in
        let cur = Option.value (Hashtbl.find_opt comp_diam r) ~default:0 in
        Hashtbl.replace comp_diam r (max cur (Hashtbl.find chain u)));
    let n_components = Hashtbl.length comp_diam in
    let c_max = Hashtbl.fold (fun _ d acc -> max d acc) comp_diam 0 in
    let c_sum = Hashtbl.fold (fun _ d acc -> acc + d) comp_diam 0 in
    let max_out = ref 0 and max_in = ref 0 in
    Graph.iter_nodes g (fun u ->
        max_out := max !max_out (Graph.out_degree g u);
        max_in := max !max_in (Graph.in_degree g u));
    {
      n;
      m;
      n_components;
      c_max;
      c_avg = float_of_int c_sum /. float_of_int n_components;
      d_in = float_of_int m /. float_of_int n;
      max_out_degree = !max_out;
      max_in_degree = !max_in;
    }
  end

let pp ppf t =
  Format.fprintf ppf
    "n=%d m=%d components=%d c_max=%d c_avg=%.2f d_in=%.3f max_out=%d max_in=%d"
    t.n t.m t.n_components t.c_max t.c_avg t.d_in t.max_out_degree
    t.max_in_degree
