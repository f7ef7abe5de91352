(** Reusable event thunks for message-like deliveries.

    [Engine.schedule] takes a thunk; scheduling a fresh closure per
    message allocates one per event.  A carrier pool instead keeps one
    thunk per carrier, built once, and a carrier is reused as soon as
    its delivery starts.  Each {!schedule} still makes exactly one
    [Engine.schedule] call with the given delay, so the engine's
    [(time, seq)] order — and every simulated event — is unchanged. *)

type 'a t

val create : Engine.t -> (int -> 'a -> unit) -> 'a t
(** [create engine deliver]: every scheduled [(arg, payload)] is handed
    to [deliver arg payload] when its event fires. *)

val schedule : 'a t -> delay:int -> int -> 'a -> unit

val reset : 'a t -> unit
(** Free every carrier, including those whose events were dropped by an
    [Engine.clear].  Only sound between runs. *)
