(** Model-aware reference enumeration.

    {!Enumerate} answers "what can sequential consistency produce?";
    this module answers the same question for a relaxed hardware
    ordering model ({!Wo_core.Sync_model.hardware}): TSO, PSO or the
    release/acquire window model.  It exhaustively interleaves an
    abstract operational machine in which per-processor store buffers
    are explicit state and draining one buffered write is a scheduling
    step, so the result is the model's exact allowed outcome set for a
    loop-free program.

    The simulated backends ({!Wo_machines.Ordering}) realize the same
    models with concrete timing; every outcome they can produce is in
    this set.  [wo difftest] checks that inclusion run by run, which is
    the racy-program half of the differential compliance harness (the
    DRF0 half is Definition 2: the allowed set is the SC set).

    {!outcomes} is a compiled search: the program is lowered once by
    {!Prog_compile.compile}; a state is the processors' pcs, the flat
    register file, memory over dense location indices and one store
    buffer of (location index, value) pairs per processor, and the
    visited table keys on an exact packed byte string of that tuple
    (full-key comparison).  Local computation runs eagerly, and so do
    buffered data writes: when the model buffers, a write only appends
    to its own processor's buffer, which commutes with every other step
    and is never disabled, so executing it at once loses no outcome.
    Reads, synchronization operations and fences stay scheduling steps.

    {!reference_outcomes} is the original list walk over the source
    program; it is the identity oracle for the compiled search and
    answers the programs {!Prog_compile.compile} rejects. *)

exception Too_many_states of int
(** Raised when the search exceeds [max_states] distinct states. *)

val outcomes :
  ?max_states:int ->
  Wo_core.Sync_model.hardware ->
  Program.t ->
  Outcome.t list
(** All outcomes the hardware model allows for the program, sorted by
    {!Outcome.compare}.  Under {!Wo_core.Sync_model.sc_hw} this equals
    {!Enumerate.outcomes} (as a set); each weaker model's set contains
    the stronger ones'.  Equal to {!reference_outcomes}.

    [max_states] (default 2,000,000) bounds the distinct states of the
    compiled search (of the reference walk, for programs that do not
    compile).  The eager-write reduction visits fewer states than the
    reference walk, so a program over the bound there may fit here:
    more sets are answered, never fewer.
    @raise Invalid_argument on programs with loops.
    @raise Too_many_states when the bound is exceeded. *)

val reference_outcomes :
  ?max_states:int ->
  Wo_core.Sync_model.hardware ->
  Program.t ->
  Outcome.t list
(** The same set by the uncompiled walk: explicit code tails,
    assoc-list registers and memory, every write a scheduling step.
    [max_states] bounds its distinct states.
    @raise Invalid_argument on programs with loops.
    @raise Too_many_states when the bound is exceeded. *)

val outcomes_with_states :
  ?max_states:int ->
  ?reference:bool ->
  Wo_core.Sync_model.hardware ->
  Program.t ->
  Outcome.t list * int
(** {!outcomes} ([reference] false, the default) or
    {!reference_outcomes} ([reference] true), with the number of
    distinct states the search visited. *)
