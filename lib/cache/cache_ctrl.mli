(** Per-processor cache controller (Sections 5.2–5.3).

    One controller holds one processor's cache: MSI line states plus the
    paper's {e reserve bit}, and the per-processor counter of outstanding
    accesses.  Accesses complete through two callbacks matching the
    paper's commit / globally-performed distinction.

    {b Tokens.}  The caller names each access by an int {e token} of its
    own choosing (a dense handle, e.g. an index into a per-session pool
    of operation records) and passes two functions once, at {!create}:
    [on_commit token ~at value] and [on_gp token].  The controller keeps
    the access's kind and serial itself, by token, so submitting an
    access allocates no closures; a token may be reused once its
    [on_gp] has returned.

    {b Lines.}  The controller owns its line records in a
    {!Line_table}: {!reset} parks them in place and the next run
    revives them, so a reused session rebuilds no lines, no queues and
    no per-line attempt thunks.  A line dropped during a run
    (invalidated while idle, or evicted) is retired until the next
    reset, so a location that returns in the same run gets a fresh
    record.  Reserve releases send messages in the table's [Hashtbl]
    order (see {!Line_table}) — the order decides which latency draw
    each message gets — and {!debug_dump} prints lines in it.  The
    eviction victim is chosen in storage order, which is safe because
    every evictable line has a distinct last-use time.

    {b Outstanding accesses.}  The counter is a {!Serials} set: a count,
    per-serial done flags and a low-water mark, so the reserve-release
    floor and membership tests are O(1).

    Mechanisms of Section 5.3, with the two refinements the paper sketches
    but does not spell out (both are needed for deadlock freedom, see the
    comment on the reserve watermark in the implementation):
    - every access is tracked from submission until it is globally
      performed (the per-access refinement of the outstanding-access
      counter: the paper's footnote about "a mechanism to distinguish
      accesses generated before a particular synchronization operation
      from those generated after");
    - when a synchronization operation commits while accesses generated
      before it are outstanding (or its own invalidations are pending),
      the line's reserve bit is set; it clears when everything generated
      up to and including that synchronization is globally performed;
    - a recall for a reserved line stalls only if the request that
      triggered it is itself a synchronization operation ("when a
      synchronization request is routed to a processor, it is serviced
      only if the reserve bit of the requested line is reset") — data
      requests are serviced regardless, which is what makes the paper's
      deadlock-freedom argument go through;
    - a reserved line is never evicted.

    The controller is policy-neutral: processor-side ordering (when the
    processor may issue the next access) belongs to the machines; the
    controller only implements the cache-side mechanisms, so the same code
    underlies the SC, Definition-1 and Definition-2 machines. *)

exception Protocol_error of string

type access_kind =
  [ `Data_read
  | `Data_write of Wo_core.Event.value
  | `Sync_read
  | `Sync_write of Wo_core.Event.value
  | `Sync_rmw of Wo_core.Event.rmw ]

type config = {
  hit_cycles : int;         (** cache access latency (default 1) *)
  reserve_enabled : bool;   (** the Section-5.3 reserve-bit mechanism *)
  sync_read_shared : bool;
      (** Section-6 refinement: read-only synchronization uses a shared
          copy and sets no reserve bit *)
  capacity : int option;    (** max resident lines; [None] = unbounded *)
  coarse_counter : bool;
      (** release reserve bits only when the whole counter reads zero —
          the paper's literal accounting.  Deadlock-prone: two processors'
          reserve bits can transitively wait on each other's stalled
          synchronization misses (kept, default off, so the test suite can
          demonstrate the hazard the watermark refinement removes). *)
}

val default_config : config
(** hit 1 cycle, reserve off, sync reads exclusive, unbounded. *)

type t

val create :
  engine:Wo_sim.Engine.t ->
  fabric:Msg.t Wo_interconnect.Fabric.t ->
  node:int ->
  dir_node:int ->
  ?stats:Wo_sim.Stats.t ->
  ?stalls:Wo_obs.Stall.t ->
  ?obs:Wo_obs.Recorder.t ->
  on_commit:(int -> at:int -> Wo_core.Event.value option -> unit) ->
  on_gp:(int -> unit) ->
  config ->
  t
(** Creates the controller and connects it to fabric node [node].

    [on_commit token ~at value] fires when an access's commit is known,
    carrying the commit time [at] and the value returned for operations
    with a read component.  For local-cache operations [at] is the
    current time; for reads served remotely it is the time the value was
    bound (dispatched) at the directory — the paper's definition of a
    read's commit.  [on_gp token] fires, after [on_commit], when the
    access is globally performed.

    With [stalls], the cycles a remote {e synchronization} request spends
    stalled on this cache's reserve bit are attributed to the requesting
    processor under {!Wo_obs.Stall.Reserve_wait} — the paper's "the
    processor issuing the (second) synchronization operation may stall"
    (Section 5.3), measured from where the stalling actually happens.
    With an enabled [obs] recorder, misses and reserve-bit windows become
    [Cache]-category spans on track [node]. *)

val reset : t -> obs:Wo_obs.Recorder.t -> unit
(** Drop every line and in-flight access, returning the controller to its
    just-created state (line records go back to the pool), and record
    into [obs] from now on (a reused
    session passes the recorder ambient at the start of each run).  The
    fabric connection made by {!create} persists, so the controller is
    immediately reusable.  Only sound between runs — after the engine
    has drained or been cleared. *)

val access : t -> Wo_core.Event.loc -> access_kind -> int -> unit
(** [access t loc kind token] submits one access.  Accesses to the same
    line are serviced in submission order (intra-processor dependencies,
    condition 1 of 5.1); accesses to different lines proceed
    independently.  [token] must not name another access in flight on
    this controller. *)

val outstanding : t -> int
(** Current value of the counter. *)

val on_counter_zero : t -> (unit -> unit) -> unit
(** One-shot callback; fires immediately if the counter is already zero. *)

val reserved_locs : t -> Wo_core.Event.loc list

val line_state : t -> Wo_core.Event.loc -> [ `Invalid | `Shared | `Exclusive ]

val value_of : t -> Wo_core.Event.loc -> Wo_core.Event.value option
(** The cached value, for resident (Shared/Exclusive/evicting) lines. *)

val pending_accesses : t -> int
(** Accesses submitted but not yet committed — non-zero after the engine
    drains indicates deadlock. *)

val resident_lines : t -> int

val stalled_recall_locs : t -> (Wo_core.Event.loc * int) list
(** Lines with stalled recalls and how many (diagnostics). *)

val debug_dump : t -> string
(** One-line-per-line state dump for deadlock diagnostics. *)
