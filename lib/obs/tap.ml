(* Kind [k] is named [names.(k)] and recorded in [hists.(k)].  A kind is
   present once it has a recorded message; registering one changes
   nothing observable. *)
type t = { mutable names : string array; mutable hists : Hist.t array }

let create () = { names = [||]; hists = [||] }

let clear t = Array.iter Hist.clear t.hists

let kind t name =
  let n = Array.length t.names in
  let rec go i =
    if i = n then begin
      t.names <- Array.append t.names [| name |];
      t.hists <- Array.append t.hists [| Hist.create () |];
      n
    end
    else if String.equal t.names.(i) name then i
    else go (i + 1)
  in
  go 0

let record_kind t k ~latency = Hist.add (Array.unsafe_get t.hists k) latency

let record t ~name ~latency = record_kind t (kind t name) ~latency

let to_list t =
  let acc = ref [] in
  Array.iteri
    (fun k name ->
      let h = t.hists.(k) in
      if Hist.count h > 0 then acc := (name, Hist.count h, h) :: !acc)
    t.names;
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !acc

let copy t =
  let present = to_list t in
  {
    names = Array.of_list (List.map (fun (name, _, _) -> name) present);
    hists = Array.of_list (List.map (fun (_, _, h) -> Hist.copy h) present);
  }

let total t = Array.fold_left (fun acc h -> acc + Hist.count h) 0 t.hists

let to_stats t =
  List.map (fun (name, count, _) -> ("msg." ^ name, count)) (to_list t)

let merge a b =
  let t = create () in
  let absorb src =
    List.iter
      (fun (name, _, h) ->
        let k = kind t name in
        t.hists.(k) <- Hist.merge t.hists.(k) h)
      (to_list src)
  in
  absorb a;
  absorb b;
  copy t

let to_json t =
  Json.List
    (List.map
       (fun (name, count, h) ->
         Json.Obj
           [
             ("type", Json.String name);
             ("count", Json.Int count);
             ("latency", Hist.to_json h);
           ])
       (to_list t))
