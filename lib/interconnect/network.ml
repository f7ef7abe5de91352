type 'msg t = {
  messages : Wo_sim.Stats.counter;
  tap : ('msg -> src:int -> dst:int -> latency:int -> unit) option;
  latency : Latency.t;
  handlers : ('msg -> unit) option array ref;  (* by node *)
  deliveries : 'msg Wo_sim.Carriers.t;  (* arg = destination node *)
  mutable sent : int;
}

let create ~engine ?(stats = Wo_sim.Stats.create ()) ?tap ~latency () =
  let handlers = ref [||] in
  {
    messages = Wo_sim.Stats.counter stats "network.messages";
    tap;
    latency;
    handlers;
    deliveries =
      Wo_sim.Carriers.create engine (fun dst msg ->
          Handlers.deliver ~who:"Network.send" !handlers dst msg);
    sent = 0;
  }

let connect t ~node handler =
  t.handlers := Handlers.set !(t.handlers) node handler

let send t ~src ~dst msg =
  t.sent <- t.sent + 1;
  Wo_sim.Stats.bump t.messages;
  let delay = Int.max 1 (t.latency ~src ~dst) in
  (match t.tap with
  | Some tap -> tap msg ~src ~dst ~latency:delay
  | None -> ());
  Wo_sim.Carriers.schedule t.deliveries ~delay dst msg

let messages_sent t = t.sent

let reset t =
  t.sent <- 0;
  Wo_sim.Carriers.reset t.deliveries
