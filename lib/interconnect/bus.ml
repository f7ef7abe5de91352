type 'msg pending = { src : int; dst : int; enqueued : int; msg : 'msg }

(* The transaction on the bus is the head of [queue]; it leaves the
   queue when it is delivered. *)
type 'msg t = {
  engine : Wo_sim.Engine.t;
  messages : Wo_sim.Stats.counter;
  tap : ('msg -> src:int -> dst:int -> latency:int -> unit) option;
  transfer_cycles : int;
  mutable handlers : ('msg -> unit) option array;  (* by node *)
  queue : 'msg pending Queue.t;
  mutable busy : bool;
  mutable sent : int;
  mutable transfer_fn : unit -> unit;  (* built once: delivers the head *)
}

let connect t ~node handler =
  t.handlers <- Handlers.set t.handlers node handler

let start_next t =
  if Queue.is_empty t.queue then t.busy <- false
  else begin
    t.busy <- true;
    Wo_sim.Engine.schedule t.engine ~delay:t.transfer_cycles t.transfer_fn
  end

let transfer t () =
  let { src; dst; enqueued; msg } = Queue.take t.queue in
  (match t.tap with
  | Some tap ->
    (* queueing wait + transfer: total send-to-delivery latency *)
    tap msg ~src ~dst ~latency:(Wo_sim.Engine.now t.engine - enqueued)
  | None -> ());
  Handlers.deliver ~who:"Bus.send" t.handlers dst msg;
  start_next t

let create ~engine ?(stats = Wo_sim.Stats.create ()) ?tap ?(transfer_cycles = 2)
    () =
  let t =
    {
      engine;
      messages = Wo_sim.Stats.counter stats "bus.messages";
      tap;
      transfer_cycles;
      handlers = [||];
      queue = Queue.create ();
      busy = false;
      sent = 0;
      transfer_fn = ignore;
    }
  in
  t.transfer_fn <- transfer t;
  t

let send t ~src ~dst msg =
  t.sent <- t.sent + 1;
  Wo_sim.Stats.bump t.messages;
  Queue.add { src; dst; enqueued = Wo_sim.Engine.now t.engine; msg } t.queue;
  if not t.busy then start_next t

let messages_sent t = t.sent
let busy t = t.busy

let reset t =
  Queue.clear t.queue;
  t.busy <- false;
  t.sent <- 0
