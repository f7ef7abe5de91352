(** The cross-run persistent verdict store.

    An append-only binary log plus an in-memory digest index, promoting
    {!Wo_workload.Sweep}'s in-run SC memoization to something that
    survives the process: once a (program encoding, machine-spec JSON,
    seed) triple is settled, no future campaign re-runs it.

    {2 On-disk format (version 1)}

    {v
    "WOCAMPS1"                                 8-byte magic + version
    record*                                    append-only
    v}

    Each record is

    {v
    u32le key_len | u32le value_len | u32le checksum | key | value
    v}

    with the checksum FNV-1a (32-bit) over key then value bytes.  Keys
    and values are opaque byte strings; the campaign layer packs
    structured keys itself ({!Campaign}).

    {2 Crash safety}

    Records are appended with a single [write]; a process killed
    mid-append (kill -9) leaves at most one torn record at the tail.
    {!openf} scans the log, indexes every complete record, stops at the
    first short or checksum-failing one and truncates the file there —
    so a crashed campaign loses only its in-flight shard and a resumed
    one skips everything settled.  {!sync} forces the log to stable
    storage (machine-crash durability; process crashes need nothing).

    The index maps the 16-byte digest of each key to its log offset;
    lookups confirm the full key bytes from disk, so a digest collision
    can never alias two distinct triples.

    {2 Concurrent access}

    One process owns a store read-write at a time (the campaign driver
    or the [wo serve] daemon), but any number of processes may read it
    concurrently: {!Snapshot} opens the log read-only against an
    immutable view of its complete-record prefix (never truncating),
    and {!Shared} wraps the writer handle for in-process domain
    concurrency — lock-free reads against an atomically swapped
    snapshot, appends serialized under a mutex.  The record checksum is
    what makes this sound: a concurrently appended half-record is
    indistinguishable from a torn tail, so a reader can never observe a
    torn record as data. *)

type t

val openf : string -> t
(** Open (creating if absent) the log at a path, scan and index it,
    and truncate any torn tail.  The digest index is sized from the
    scanned record count, so buckets are allocated once at their final
    geometry rather than grown (and rehashed) during the scan.
    @raise Sys_error on unopenable paths
    @raise Failure on a foreign magic number *)

val close : t -> unit

val path : t -> string

val length : t -> int
(** Complete records indexed. *)

val live : t -> int
(** Records that are the first for their key digest — what would
    survive {!compact}.  Conservative: a digest shared by two distinct
    keys counts one live, but real collisions are ~never. *)

val dead_estimate : t -> int
(** [length t - live t]: superseded duplicates that compaction would
    drop. *)

val tail_dropped : t -> int
(** Bytes of torn tail discarded by {!openf} (0 on a clean log). *)

val find : t -> key:string -> string option
(** The value of the first record with exactly this key. *)

val mem : t -> key:string -> bool

val add : t -> key:string -> value:string -> unit
(** Append a record and index it.  The store is append-only: adding an
    existing key appends a duplicate record, but {!find} keeps
    returning the first — settled verdicts are immutable. *)

val sync : t -> unit
(** [fsync] the log (call once per shard, not per record). *)

val iter : t -> (key:string -> value:string -> unit) -> unit
(** Every indexed record in log order (reads from disk). *)

(** {2 Compaction} *)

type compact_stats = {
  cs_before_records : int;
  cs_after_records : int;
  cs_before_bytes : int;
  cs_after_bytes : int;
}

val compact : string -> compact_stats
(** Rewrite the log at a path keeping only the first record for each
    exact key (the one every [find] answers with), into a fresh
    checksummed file swapped in with an atomic rename.  Crash-safe: the
    new log is fully written and fsync'ed before the rename, and the
    directory is fsync'ed after, so a crash at any point leaves either
    the complete old log or the complete new one.  The store must not
    be open read-write elsewhere. *)

(** {2 Read-only snapshots (cross-process)} *)

module Snapshot : sig
  type s

  val load : string -> s
  (** Open read-only and index the complete-record prefix.  Unlike
      {!openf} this never truncates: a torn or in-flight tail is simply
      not visible yet.  Safe against a live writer in another
      process. *)

  val refresh : s -> s
  (** Extend the snapshot with records appended since it was taken.
      The old value stays valid (views are immutable). *)

  val close : s -> unit

  val path : s -> string

  val length : s -> int

  val live : s -> int
  (** Records first for their key digest, counted as the read-write
      handle's [live] counts them. *)

  val superseded : s -> int
  (** [length s - live s]: duplicates compaction would drop. *)

  val unreadable : s -> int
  (** Bytes of the file past the snapshot's last complete record, as of
      now: an in-flight append, a torn tail, or everything after a
      corrupt record.  Reported, never removed. *)

  val find : s -> key:string -> string option

  val mem : s -> key:string -> bool

  val iter : s -> (key:string -> value:string -> unit) -> unit
end

(** {2 Shared in-process handle (domain concurrency)} *)

module Shared : sig
  type h

  val openf : string -> h
  (** Open read-write (as {!val:openf}) and publish an initial
      snapshot. *)

  val find : h -> key:string -> string option
  (** Lock-free: reads the current atomic snapshot; never blocks on a
      concurrent {!add_if_absent}. *)

  val mem : h -> key:string -> bool

  val length : h -> int

  val path : h -> string

  val add_if_absent : h -> key:string -> value:string -> bool
  (** Append under the writer mutex unless the key is already present;
      returns whether a record was written.  Publishes a new snapshot
      including the record before returning. *)

  val sync : h -> unit

  val close : h -> unit
end
