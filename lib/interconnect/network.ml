type 'msg t = {
  engine : Wo_sim.Engine.t;
  messages : Wo_sim.Stats.counter;
  tap : ('msg -> src:int -> dst:int -> latency:int -> unit) option;
  latency : Latency.t;
  mutable handlers : ('msg -> unit) option array;  (* by node *)
  mutable sent : int;
}

let create ~engine ?(stats = Wo_sim.Stats.create ()) ?tap ~latency () =
  {
    engine;
    messages = Wo_sim.Stats.counter stats "network.messages";
    tap;
    latency;
    handlers = [||];
    sent = 0;
  }

let connect t ~node handler =
  t.handlers <- Handlers.set t.handlers node handler

let send t ~src ~dst msg =
  t.sent <- t.sent + 1;
  Wo_sim.Stats.bump t.messages;
  let delay = max 1 (t.latency ~src ~dst) in
  (match t.tap with
  | Some tap -> tap msg ~src ~dst ~latency:delay
  | None -> ());
  Wo_sim.Engine.schedule t.engine ~delay (fun () ->
      Handlers.deliver ~who:"Network.send" t.handlers dst msg)

let messages_sent t = t.sent

let reset t = t.sent <- 0
