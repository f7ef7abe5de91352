(** The flat memory behind the cache-less machines.

    Memory modules, interleaved by location behind the fabric, apply
    operations atomically in arrival order and reply with the application
    time.  This module owns that protocol, the tag table that routes
    replies back to their operations, and the processor-side requests
    every store path shares: reads, RMWs, direct writes, store-to-load
    forwarding and fences.  {!Uncached} (optional FIFO write buffer plus
    per-location write sequencing) and {!Ordering} (TSO / PSO / RA store
    channels) differ only in the store path in front of it.

    A processor is {e quiet} when no reply to any of its operations is
    awaited: every write it deposited or sent has been acknowledged. *)

(** Messages between processors and memory modules. *)
type amsg =
  | M_read of { loc : Wo_core.Event.loc; proc : int; tag : int }
  | M_write of {
      loc : Wo_core.Event.loc;
      value : Wo_core.Event.value;
      proc : int;
      tag : int;
    }
  | M_rmw of {
      loc : Wo_core.Event.loc;
      f : Wo_core.Event.rmw;
      proc : int;
      tag : int;
    }
  | M_read_reply of { tag : int; value : Wo_core.Event.value; applied_at : int }
  | M_write_ack of { tag : int; applied_at : int }
  | M_rmw_reply of { tag : int; old : Wo_core.Event.value; applied_at : int }

val amsg_kind : amsg -> int
(** The constructor's index into {!amsg_kind_names}. *)

val amsg_kind_names : string array
(** Message-tap names by {!amsg_kind}: ["Read"], ["Write"], … *)

type t

val create : Driver.env -> Memsys.fabric_kind -> modules:int -> t
(** Build the fabric ({!Driver.fabric}, so call this before anything
    else that touches the environment), connect the modules and the
    processors' reply handlers, and register the session reset. *)

val is_sync : Proc_frontend.memory_op -> bool

val expect : t -> Memsys.op -> (Memsys.op -> unit) -> int
(** A fresh tag whose reply fills the operation's record and then runs
    the continuation.  Until the reply arrives, the operation's
    processor is not quiet. *)

val post : t -> int -> delay:int -> Wo_cache.Write_buffer.entry -> unit
(** Send a deposited write (its tag from {!expect}) to its module after
    [delay] cycles. *)

val write : t -> int -> Memsys.op -> Wo_core.Event.value -> (Memsys.op -> unit) -> unit
(** Send a write to its module now; the continuation runs on the
    acknowledgement. *)

val read : t -> int -> Proc_frontend.memory_op -> Memsys.op -> unit
(** Send a read, charge its round trip from now and resume the processor
    with the value. *)

val rmw :
  t -> int -> Proc_frontend.memory_op -> Memsys.op -> Wo_core.Event.rmw -> unit
(** {!read} for an atomic read-modify-write. *)

val forward : t -> int -> Proc_frontend.memory_op -> Memsys.op -> Wo_core.Event.value -> unit
(** Satisfy a read from the processor's own pending write. *)

val awaiting : t -> int -> int
(** Replies processor [p] still awaits. *)

val quiet : t -> int -> bool

val on_quiet : t -> int -> (unit -> unit) -> unit
(** Run the callback once processor [p] is quiet (now, if it is). *)

val wake_if_quiet : t -> int -> unit
(** Run the callbacks waiting for [p] to be quiet, if it is.  Store paths
    call this after an acknowledgement, at the point their protocol
    lets a waiting processor go. *)

val port :
  t ->
  perform:(int -> Proc_frontend.memory_op -> unit) ->
  proc_status:(int -> string) ->
  Memsys.port
(** The machine's port: the store path's [perform] and status line, with
    fences, final memory, diagnostics and the drain check from here. *)
