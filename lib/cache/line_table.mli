(** Int-keyed tables of protocol line records, pooled across runs.

    Both the cache controller and the directory keep one record per
    resident line.  This table maps a location to its record by open
    addressing on the location itself (no hashing, no per-entry cells),
    and owns the records it has held.  {!reset} starts a new epoch in
    place: last run's records stay parked in their slots, a location
    that comes back is revived in its own record ({!reuse}), and other
    locations take records from a pool ({!take_pooled}) — so a reused
    session rebuilds nothing, and a reset costs what the run retired,
    never the range of location values.  When parked records crowd the
    table, a reset sweeps them into the pool.

    {b Removal.}  A record {!remove}d during a run is {e retired}, not
    pooled: a pending event may still hold it, so it only becomes
    reusable at the next {!reset}.  A location that comes back in the
    same run therefore gets a fresh record and never aliases the old
    one.

    {b Order contract.}  {!iter_hashtbl_order} visits records exactly as
    [Hashtbl.iter] would visit a [Hashtbl.create 64] table driven by the
    same [replace]-of-absent-key / [remove] / [reset] calls: bucket
    [Hashtbl.hash loc land (b - 1)] ascending, newest insertion first
    within a bucket, where [b] starts at 64 and doubles whenever the
    resident count since the last reset exceeds [2b].  The protocol
    depends on it where iteration order is observable: reserve
    releases send messages (and so draw latencies) in this order, and
    deadlock dumps print lines in it.  {!fold} visits in storage order,
    for order-free uses only. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] marks absence: it is never stored, and {!find} returns it
    for an absent location. *)

val dummy : 'a t -> 'a

val find : 'a t -> int -> 'a
(** The resident record for a location, or {!dummy}. *)

val reuse : 'a t -> int -> 'a
(** Make an absent location resident again in the record it had before
    the last {!reset}, returned for the caller to reinitialise; or
    {!dummy} when it has no parked record (then {!add} one).
    @raise Invalid_argument if the location is resident. *)

val add : 'a t -> int -> 'a -> unit
(** Insert a record for a location that is neither resident nor
    parked ({!reuse} returned {!dummy}).
    @raise Invalid_argument if the location has a record or the record
    is {!dummy}. *)

val remove : 'a t -> int -> unit
(** Drop a location's record (no-op when absent); the record is
    retired until the next {!reset}. *)

val take_pooled : 'a t -> 'a
(** A record released by an earlier {!reset}, now owned by the caller,
    or {!dummy} when the pool is empty. *)

val length : 'a t -> int

val reset : 'a t -> unit
(** Empty the table in place: resident records are parked for {!reuse},
    retired ones join the pool. *)

val fold : ('a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Storage order (unspecified). *)

val iter_hashtbl_order : 'a t -> ('a -> bool) -> ('a -> unit) -> unit
(** [iter_hashtbl_order t keep f] applies [f] to every record satisfying
    [keep], in [Hashtbl] order (see above).  [keep] is evaluated for all
    records before [f] runs; [f] must not add or remove locations, and
    calls must not nest. *)
