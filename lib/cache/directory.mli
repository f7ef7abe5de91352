(** The full-map directory (Section 5.2).

    One directory serves all locations (one word per line, see DESIGN.md).
    Transactions on a line are serialized: while a line has an outstanding
    transaction — a recall of the exclusive owner, or invalidations whose
    acknowledgements are still pending — subsequent requests for that line
    queue at the directory.  Queuing requests behind pending
    acknowledgements is what guarantees that no {e other} processor can
    read a write that is not yet globally performed through the directory
    (the writer itself can, from its own cache: that is the weak behaviour
    the paper's machines must control).

    Following the paper, on a write to a shared line the directory sends
    the data to the writer {e in parallel} with the invalidations; the
    final acknowledgement is the separate [WriteDone] message.

    {b Lines.}  The directory owns its line records in a {!Line_table}:
    a line is created on its location's first message of a run (at
    handling time, after [process_cycles]), and {!reset} returns the
    records to the table in place, so a reused session revives them
    instead of rebuilding them.  Sharers are a per-line flag set, one
    flag per cache node, visited in ascending node order — so
    invalidations go out in the same order as ever.  Arriving messages
    ride pooled event carriers rather than a fresh closure each.
    {!debug_dump} prints lines in the table's [Hashtbl] order (see
    {!Line_table}). *)

exception Protocol_error of string

type t

type state =
  | Uncached
  | Shared of int list   (** sharer cache ids, sorted *)
  | Exclusive of int     (** owner cache id *)

val create :
  engine:Wo_sim.Engine.t ->
  fabric:Msg.t Wo_interconnect.Fabric.t ->
  node:int ->
  ?stats:Wo_sim.Stats.t ->
  ?obs:Wo_obs.Recorder.t ->
  ?process_cycles:int ->
  initial:(Wo_core.Event.loc -> Wo_core.Event.value) ->
  unit ->
  t
(** Creates the directory and connects it to fabric node [node].
    [process_cycles] (default 1) is charged per handled message.  With an
    enabled [obs] recorder, every directory transaction (recall,
    invalidation round) becomes a [Dir]-category span on the line's
    track. *)

val reset : t -> obs:Wo_obs.Recorder.t -> unit
(** Forget every line, in place, and record into [obs] from now on; the
    fabric connection persists.  Line records stay pooled and are
    revived lazily through [initial], so the directory serves the next
    run's initial values.  Only sound between runs. *)

val state_of : t -> Wo_core.Event.loc -> state

val exclusive_owner : t -> Wo_core.Event.loc -> int
(** The cache holding the line exclusively, or [-1]; {!state_of}
    without building a sharer list. *)

val memory_value : t -> Wo_core.Event.loc -> Wo_core.Event.value
(** The directory's (memory's) current value — stale while a line is owned
    exclusively. *)

val debug_dump : t -> string
(** Per-line directory state for deadlock diagnostics. *)

val busy : t -> bool
(** Whether any line has an outstanding transaction; allocation-free. *)

val busy_lines : t -> Wo_core.Event.loc list
(** Lines with an outstanding transaction (should be empty when a
    simulation drains; non-empty indicates deadlock). *)
