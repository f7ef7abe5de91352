(** Protocol-message taps: per-type counts and transit-latency
    histograms.

    The machines install one of these on their interconnect fabric; the
    bus and network call back with every message and its
    send-to-delivery latency (for the bus, queueing wait included).

    Message types are int {e kinds}: a fabric resolves its protocol's
    static name table once with {!kind} and then records by index with
    {!record_kind} — no string hashing per message.  A kind is
    {e present} once it has recorded a message; only present kinds are
    listed. *)

type t

val create : unit -> t

val clear : t -> unit
(** Empty every histogram, in place.  Registered kinds — and the
    indices {!kind} returned — stay valid. *)

val kind : t -> string -> int
(** Resolve (registering if new) the kind named [name]. *)

val record_kind : t -> int -> latency:int -> unit
(** Record one message of a kind returned by {!kind} on this tap. *)

val record : t -> name:string -> latency:int -> unit
(** [record_kind t (kind t name)]. *)

val copy : t -> t
(** Deep snapshot (histograms included, no aliasing of the live taps)
    holding exactly the present kinds, in name order, each histogram
    copied by {!Hist.copy} — so the snapshot depends only on what was
    recorded, never on the order kinds were registered. *)

val to_list : t -> (string * int * Hist.t) list
(** [(type, count, latency histogram)] for present kinds, sorted by
    type name. *)

val total : t -> int
(** Messages recorded across all types. *)

val merge : t -> t -> t
(** Per-type sum into a fresh tap (stored as by {!copy}). *)

val to_stats : t -> (string * int) list
(** [("msg.<type>", count)] entries, sorted. *)

val to_json : t -> Json.t
(** [[{"type", "count", "latency": <hist>}...]]. *)
