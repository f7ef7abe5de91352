(* A carrier is a mutable (int, payload) cell plus the thunk that
   delivers it, built once with the carrier.  Scheduling takes a free
   carrier (or makes one), fills it and schedules its thunk; the thunk
   reads the cell, frees the carrier, then delivers — so a delivery that
   schedules again may reuse the very carrier it arrived in. *)

type 'a carrier = {
  mutable arg : int;
  mutable payload : 'a;
  mutable run : unit -> unit;
}

type 'a t = {
  engine : Engine.t;
  deliver : int -> 'a -> unit;
  mutable all : 'a carrier array;  (* every carrier made, [0, made) *)
  mutable made : int;
  mutable free : 'a carrier array;  (* stack, [0, nfree) *)
  mutable nfree : int;
}

let create engine deliver =
  { engine; deliver; all = [||]; made = 0; free = [||]; nfree = 0 }

let grow a n c = if n < Array.length a then a else Array.append a (Array.make (max 8 n) c)

let release t c =
  t.free <- grow t.free t.nfree c;
  t.free.(t.nfree) <- c;
  t.nfree <- t.nfree + 1

let make t payload =
  let c = { arg = 0; payload; run = ignore } in
  c.run <-
    (fun () ->
      let arg = c.arg and payload = c.payload in
      release t c;
      t.deliver arg payload);
  t.all <- grow t.all t.made c;
  t.all.(t.made) <- c;
  t.made <- t.made + 1;
  c

let schedule t ~delay arg payload =
  let c =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else make t payload
  in
  c.arg <- arg;
  c.payload <- payload;
  Engine.schedule t.engine ~delay c.run

let reset t =
  (* after a drained run every carrier is already free *)
  if t.nfree < t.made then begin
    if Array.length t.free < t.made then t.free <- Array.sub t.all 0 t.made
    else Array.blit t.all 0 t.free 0 t.made;
    t.nfree <- t.made
  end
