(** A cache controller's outstanding accesses, by serial.

    Every access gets the next serial ({!issue}) when it is submitted
    and leaves the set when it is globally performed ({!complete}).
    Membership is a flag read and the minimum is a maintained low-water
    mark, so the reserve-release floor of Section 5.3 costs O(1). *)

type t

val create : unit -> t

val issue : t -> int
(** Enter the next serial (0, 1, 2, … since the last {!reset}). *)

val complete : t -> int -> unit
(** @raise Invalid_argument if the serial is not outstanding. *)

val mem : t -> int -> bool

val count : t -> int

val min_outstanding : t -> int
(** The smallest outstanding serial, or [max_int] when none is. *)

val reset : t -> unit
(** Empty the set and restart serials at 0, in place. *)
