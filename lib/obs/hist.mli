(** Power-of-two latency histograms.

    64 logical buckets — bucket [i] counts values [v] with
    [bits v = i] (bucket 0 holds zero, bucket 1 holds 1, bucket 2 holds
    2–3, bucket 3 holds 4–7, …) — of which only the prefix up to the
    highest bucket used is stored: a fresh histogram holds no array, and
    recording grows it only when a value lands beyond the stored prefix.
    {!buckets}, {!merge} and {!to_json} read exactly as with all 64
    stored. *)

type t

val create : unit -> t

val clear : t -> unit
(** Forget every value, in place (the stored buckets are kept, zeroed). *)

val bucket_of : int -> int
(** The bucket a value lands in (negative values clamp to bucket 0). *)

val copy : t -> t
(** Deep copy — the snapshot no longer aliases the live histogram.  The
    copy stores exactly [bucket_of (max_value t) + 1] buckets (none when
    empty), so equal histograms copy to equal data however they were
    reused. *)

val add : t -> int -> unit
(** Negative values clamp to zero. *)

val count : t -> int

val sum : t -> int

val max_value : t -> int
(** Largest value recorded (0 when empty). *)

val mean : t -> float
(** 0.0 when empty. *)

val buckets : t -> (int * int * int) list
(** Non-empty buckets as [(lo, hi, count)], ascending. *)

val merge : t -> t -> t
(** Pointwise sum into a fresh histogram (stored as by {!copy}). *)

val to_json : t -> Json.t
(** [{"count", "sum", "mean", "max", "buckets": [{"lo","hi","n"}...]}]. *)
