(** Per-node message handlers of a fabric (bus or network), held in an
    array indexed by node id so delivery is a bounds check and a load. *)

val set :
  ('msg -> unit) option array -> int -> ('msg -> unit) ->
  ('msg -> unit) option array
(** [set handlers node h] installs [h] for [node] (replacing any previous
    handler), growing the array when [node] is beyond it; returns the
    array to keep. *)

val deliver : who:string -> ('msg -> unit) option array -> int -> 'msg -> unit
(** Hand a message to node [dst]'s handler.
    @raise Invalid_argument naming [who] if [dst] has none. *)
