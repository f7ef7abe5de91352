(** Named integer counters for simulation statistics.

    A collector is a set of named int {e slots}.  Hot paths resolve a
    name once, at component build time, with {!counter}, and then bump
    the resolved slot — an array update, no string hashing.  The
    string-keyed functions ({!incr}, {!add}, {!max_to}, {!get}) resolve
    the name on every call and suit cold paths and tests.

    A slot is {e touched} once any update reaches it ([add … 0] counts);
    only touched slots are listed, so registering a name changes
    nothing observable. *)

type t

type counter
(** A resolved slot of one collector. *)

val create : unit -> t

val clear : t -> unit
(** Zero every slot and mark it untouched, in place.  Registrations —
    and so every resolved {!counter} — stay valid; the collector lists
    nothing, as after {!create}. *)

val counter : t -> string -> counter
(** Resolve (registering if new) the slot named [name]. *)

val bump : counter -> unit
(** Add one. *)

val bump_by : counter -> int -> unit

val bump_max : counter -> int -> unit
(** Keep the running maximum: store [n] if it exceeds the slot's value
    (an untouched slot reads 0, so [n <= 0] leaves it untouched). *)

val incr : t -> string -> unit

val add : t -> string -> int -> unit

val get : t -> string -> int
(** 0 if never touched. *)

val max_to : t -> string -> int -> unit
(** Keep the running maximum; below the current value nothing is
    registered or touched. *)

val to_list : t -> (string * int) list
(** Touched slots, sorted by name. *)

val snapshot : t -> t
(** A detached copy holding exactly the touched slots, in name order.
    Its representation depends only on {!to_list}, never on the order
    in which names were registered, so snapshots of equal collectors
    Marshal identically. *)

val merge : t -> t -> t
(** Pointwise sum into a fresh collector. *)

val pp : Format.formatter -> t -> unit
