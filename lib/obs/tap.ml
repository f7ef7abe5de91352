(* Kind [k] is named [names.(k)] and recorded in [hists.(k)].  A kind is
   present once it has a recorded message; registering one changes
   nothing observable.  [order] lists the kinds by name once [sorted] is
   set: it is rebuilt on first use after a registration, so listing and
   copying sort only once per build.  An empty [order] with [sorted] set
   means the kinds are already in name order, as in a copy. *)
type t = {
  mutable names : string array;
  mutable hists : Hist.t array;
  mutable order : int array;
  mutable sorted : bool;
}

let create () = { names = [||]; hists = [||]; order = [||]; sorted = true }

let sort_order t =
  if not t.sorted then begin
    let order = Array.init (Array.length t.names) Fun.id in
    Array.sort (fun a b -> String.compare t.names.(a) t.names.(b)) order;
    t.order <- order;
    t.sorted <- true
  end

(* after [sort_order] *)
let kind_at t j = if Array.length t.order = 0 then j else Array.unsafe_get t.order j

let clear t =
  for k = 0 to Array.length t.hists - 1 do
    Hist.clear (Array.unsafe_get t.hists k)
  done

let kind t name =
  let n = Array.length t.names in
  let rec go i =
    if i = n then begin
      t.names <- Array.append t.names [| name |];
      t.hists <- Array.append t.hists [| Hist.create () |];
      t.sorted <- false;
      n
    end
    else if String.equal t.names.(i) name then i
    else go (i + 1)
  in
  go 0

let record_kind t k ~latency = Hist.add (Array.unsafe_get t.hists k) latency

let record t ~name ~latency = record_kind t (kind t name) ~latency

let to_list t =
  sort_order t;
  let acc = ref [] in
  for j = Array.length t.names - 1 downto 0 do
    let k = kind_at t j in
    let h = t.hists.(k) in
    if Hist.count h > 0 then acc := (t.names.(k), Hist.count h, h) :: !acc
  done;
  !acc

let copy t =
  sort_order t;
  let kinds = Array.length t.names in
  let n = ref 0 in
  for k = 0 to kinds - 1 do
    if Hist.count (Array.unsafe_get t.hists k) > 0 then incr n
  done;
  let names = Array.make !n "" and hists = Array.make !n (Hist.create ()) in
  let j = ref 0 in
  for i = 0 to kinds - 1 do
    let k = kind_at t i in
    let h = Array.unsafe_get t.hists k in
    if Hist.count h > 0 then begin
      Array.unsafe_set names !j (Array.unsafe_get t.names k);
      Array.unsafe_set hists !j (Hist.copy h);
      incr j
    end
  done;
  { names; hists; order = [||]; sorted = true }

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
