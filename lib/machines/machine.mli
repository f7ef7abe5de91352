(** The common machine interface.

    Every simulated system — the four Figure-1 configurations, the
    sequentially consistent baseline, Definition-1 hardware and the
    paper's Section-5.3 implementation — runs a {!Wo_prog.Program} to
    completion and produces the same shape of result, so the litmus
    harness, the Definition-2 compliance tests and the benchmarks are
    machine-agnostic. *)

exception Machine_error of string
(** Deadlock or protocol failure; carries diagnostics. *)

type result = {
  outcome : Wo_prog.Outcome.t;
  trace : Wo_sim.Trace.t;
  cycles : int;
      (** engine time when all activity (including trailing
          acknowledgements) drained *)
  proc_finish : int array;
      (** per-processor time of executing its last instruction *)
  counters : Wo_sim.Stats.t;
      (** the machine's own named counters ([cache.hits],
          [network.messages], …): a {!Wo_sim.Stats.snapshot}, holding
          only touched counters in name order *)
  stalls : Wo_obs.Stall.t;
      (** typed per-processor per-reason stall-cycle attribution; the
          source of truth {!stall}, {!total_stalls} and {!proc_stalls}
          read *)
  taps : Wo_obs.Tap.t;
      (** per-protocol-message-type counts and transit-latency
          histograms: a {!Wo_obs.Tap.copy} snapshot, holding only the
          message types seen, in name order *)
}
(** The result's record depends only on the simulation, never on what a
    reused session ran before: every snapshot is canonical, so a session
    result Marshals identically to a fresh {!run}'s. *)

type engine = Compiled | Ast
(** How a session executes thread code: [Compiled] steps the int-coded
    {!Wo_prog.Prog_compile} artifact (falling back to the AST per
    program when compilation is unavailable); [Ast] always walks the
    instruction tree.  Both produce byte-identical results. *)

val engine_name : engine -> string
(** ["compiled"] / ["ast"]. *)

val engine_of_string : string -> engine option

type session = {
  session_machine : string;  (** owning machine's name *)
  session_engine : engine;
  session_run :
    seed:int -> ?compiled:Wo_prog.Prog_compile.t -> Wo_prog.Program.t -> result;
  session_seed_free : unit -> bool;
      (** whether the last [session_run] returned having drawn no random
          value; its result is then the result at every seed, since the
          seed reaches a run only through the random streams it draws
          from.  False before the first run, after a run that raised,
          and always for sessions that cannot tell. *)
}
(** A reusable execution context: the memory system, interconnect and
    frontends are built once and reset in place between runs, so a batch
    of seeds (or of programs on the same machine shape) avoids
    per-run construction entirely.  Results are byte-identical
    ([Marshal]-fingerprint-equal) to fresh {!run} results at every seed.
    [compiled] supplies a pre-compiled artifact for the program (e.g. a
    campaign's memoised compilation); without it a [Compiled] session
    compiles on first binding and reuses the artifact while the same
    program stays bound. *)

type t = {
  name : string;
  description : string;
  sequentially_consistent : bool;
      (** whether this machine is expected to appear SC to {e all}
          programs (used by tests as the expectation, never by the
          machines themselves) *)
  weakly_ordered_drf0 : bool;
      (** whether this machine is expected to appear SC to DRF0 programs *)
  run : seed:int -> Wo_prog.Program.t -> result;
  new_session : engine -> session;
}

val run : t -> ?seed:int -> Wo_prog.Program.t -> result
(** One fresh-construction AST run ([seed] defaults to 0) — the oracle
    the compiled/session paths are checked against. *)

val new_session : t -> engine -> session

val session_run :
  session ->
  ?seed:int ->
  ?compiled:Wo_prog.Prog_compile.t ->
  Wo_prog.Program.t ->
  result
(** [seed] defaults to 0. *)

val run_batch :
  session ->
  ?compiled:Wo_prog.Prog_compile.t ->
  seeds:int list ->
  Wo_prog.Program.t ->
  result list
(** Run one program at each seed through the session, in order. *)

(** {2 Run accounting}

    Process-wide counters (atomic — sweep workers run machines on
    several domains): total machine runs, runs that reused a session's
    built state, session rebuilds forced by a change of machine width,
    runs where a [Compiled] engine fell back to the AST walker, and
    seeds whose result was taken from a seed-free run of the same
    batch instead of being simulated. *)

val note_run : unit -> unit
val note_session_reuse : unit -> unit
val note_session_rebuild : unit -> unit
val note_compile_fallback : unit -> unit
val note_seed_runs_reused : int -> unit
val runs : unit -> int
val session_reuses : unit -> int
val session_rebuilds : unit -> int
val compile_fallbacks : unit -> int
val seed_runs_reused : unit -> int

val emit_counters : unit -> unit
(** Emit [machine.runs] / [machine.session_reuse] /
    [machine.session_rebuilds] / [machine.compile_fallbacks] /
    [machine.seed_runs_reused] to the active recorder, if enabled. *)

val make_result :
  outcome:Wo_prog.Outcome.t ->
  trace:Wo_sim.Trace.t ->
  cycles:int ->
  proc_finish:int array ->
  ?counters:Wo_sim.Stats.t ->
  stalls:Wo_obs.Stall.t ->
  taps:Wo_obs.Tap.t ->
  unit ->
  result
(** Assemble a result; [counters] defaults to an empty collector.  The
    arguments are stored as given — callers pass snapshots. *)

val stats : result -> (string * int) list
(** The flat legacy stats view, built on demand: the machine's
    [counters] (sorted by name), then the [P<i>.stall.<reason>] and
    [stall.total] entries derived from [stalls], then the [msg.<type>]
    counts derived from [taps].  The one place this view is derived. *)

val check_lemma1 :
  ?init:(Wo_core.Event.loc -> Wo_core.Event.value) ->
  result ->
  (unit, Wo_core.Lemma1.violation list) Stdlib.result
(** Check the Lemma-1 condition against the trace: happens-before from
    program order plus synchronization-commit order, every read returning
    its hb-last write.  Meaningful for DRF0 programs on machines claiming
    weak ordering. *)

val total_stalls : result -> int
(** All attributed stall cycles. *)

val stall : result -> proc:int -> string -> int
(** [stall r ~proc reason] reads one account by its
    {!Wo_obs.Stall.reason_name} key (e.g. ["release_gate"]); unknown
    names read 0. *)

val proc_stalls : result -> proc:int -> int
(** All stall cycles attributed to one processor. *)
