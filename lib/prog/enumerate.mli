(** Enumeration of idealized executions.

    DRF0 (Definition 3) quantifies over {e all} executions on the idealized
    architecture, and Definition 2's appears-SC test needs the full set of
    sequentially consistent outcomes.  This module enumerates the
    interleavings of a program's memory operations by depth-first search
    over scheduling choices.  Local computation is not a branch point
    (it commutes), so the branching factor is the number of processors with
    a pending memory operation.

    Four enumerators, of increasing aggression:

    - {b Naive} ({!executions}, [~strategy:Naive]): every interleaving,
      once.  Exponential, by design; the oracle the others are tested
      against.
    - {b Partial-order reduction} ({!executions_por}, the default
      [~strategy:Por]): sleep-set pruning driven by a per-step independence
      test — two pending steps commute unless they touch the same location
      with a write or either is a synchronization operation.  Explores one
      representative per Mazurkiewicz trace; outcome sets and DRF0 verdicts
      are identical to the naive enumerator because both are invariant
      under commuting independent steps.
    - {b Parallel} ({!outcomes_par}, {!check_drf0_par}): the root region of
      the (naive or reduced) search tree is split across OCaml 5 [Domain]s;
      per-domain results are merged at the end.
    - {b Stateful} ({!outcomes_stateful}, {!check_drf0_stateful}): the
      reduced search {e tree} becomes a DAG — the program is run compiled
      ({!Prog_compile}, {!Cinterp}) and a visited table keyed on packed
      state encodings merges convergent schedules, the DRF0 quantifier
      additionally quotients by processor/location symmetry, and parallel
      runs use a work-stealing scheduler ({!Wsq}) instead of a static root
      split.  The production path; the tree enumerators above are the
      oracles it is tested against, and answer the inputs it cannot
      (uncompilable programs, custom synchronization models).

    Programs with loops can have unboundedly many executions — bound them
    with [max_events] and check [truncated]. *)

exception Limit_exceeded
(** Raised when a bound is hit by an enumerator with raising semantics. *)

type strategy =
  | Naive  (** every interleaving — the exhaustive oracle *)
  | Por  (** sleep-set partial-order reduction — same outcomes, fewer states *)

type stats = {
  executions : int;  (** number of complete executions enumerated *)
  states : int;  (** search-tree nodes visited (the pruning metric) *)
  truncated : bool;  (** a bound stopped the enumeration *)
}

val executions :
  ?max_events:int -> ?max_executions:int -> Program.t ->
  Wo_core.Execution.t Seq.t
(** All idealized executions, lazily, one per interleaving.  [max_events]
    (default 64) bounds the length of a single execution; [max_executions]
    (default 1_000_000) bounds their number.  @raise Limit_exceeded when
    forcing the sequence past a bound. *)

val executions_por :
  ?max_events:int -> ?max_executions:int -> Program.t ->
  Wo_core.Execution.t Seq.t
(** One representative execution per Mazurkiewicz trace, lazily, under
    sleep-set partial-order reduction.  @raise Limit_exceeded as for
    {!executions}. *)

val outcomes :
  ?strategy:strategy -> ?max_events:int -> ?max_executions:int ->
  Program.t -> Outcome.t list
(** Distinct sequentially consistent outcomes, sorted.  The default
    [Por] strategy produces exactly the same set as [Naive].
    @raise Limit_exceeded as for {!executions}. *)

val outcomes_with_stats :
  ?strategy:strategy -> ?max_events:int -> ?max_executions:int ->
  Program.t -> Outcome.t list * stats
(** Like {!outcomes} but bounds truncate instead of raising, and the
    search-effort counters are returned. *)

val outcomes_par :
  ?strategy:strategy -> ?max_events:int -> ?max_executions:int ->
  ?domains:int -> Program.t -> Outcome.t list * stats
(** {!outcomes_with_stats} with the search fanned out over [domains]
    OCaml 5 domains (default: [Domain.recommended_domain_count () - 1],
    at least 1).  The outcome set is identical for every [domains] value;
    [stats.states] sums the per-domain counters.  [max_executions] is
    enforced per domain, so a truncated parallel run can explore up to
    [domains] times more executions than a truncated sequential one. *)

val check_drf0 :
  ?strategy:strategy ->
  ?model:Wo_core.Sync_model.t ->
  ?max_events:int -> ?max_executions:int ->
  Program.t ->
  (unit, Wo_core.Drf0.report) result
(** Definition 3: the program obeys the model iff every idealized execution
    is race-free.  Returns a racy execution's report otherwise (under [Por],
    the representative of the racy trace; a program is racy under [Por] iff
    it is racy under [Naive]).

    For the built-in {!Wo_core.Sync_model.drf0} and
    {!Wo_core.Sync_model.drf1} models the check is {e path-incremental}:
    a vector-clock checker ({!Wo_core.Drf0_inc}) rides the DFS, detects a
    race at the event that creates it, and prunes the whole subtree below
    the racy prefix — no per-execution closure is built.  Racy programs
    still get a full closure-based report for the completed racy
    execution.  Custom models fall back to {!check_drf0_closure}.
    @raise Limit_exceeded as for {!executions}. *)

val check_drf0_with_stats :
  ?strategy:strategy ->
  ?model:Wo_core.Sync_model.t ->
  ?max_events:int -> ?max_executions:int ->
  Program.t ->
  (unit, Wo_core.Drf0.report) result * stats
(** {!check_drf0} with the search-effort counters ([states] counts DFS
    nodes visited; with incremental checking a racy program visits only
    the nodes up to its first racy prefix). *)

val check_drf0_closure :
  ?strategy:strategy ->
  ?model:Wo_core.Sync_model.t ->
  ?max_events:int -> ?max_executions:int ->
  Program.t ->
  (unit, Wo_core.Drf0.report) result
(** The closure-based oracle: same DFS, but every complete execution is
    checked with {!Wo_core.Drf0.check} (O(n{^ 3}) closure per leaf) and no
    subtree is pruned early.  Same verdict as {!check_drf0}; retained for
    property tests and the E11 bench.  @raise Limit_exceeded as for
    {!executions}. *)

val check_drf0_closure_with_stats :
  ?strategy:strategy ->
  ?model:Wo_core.Sync_model.t ->
  ?max_events:int -> ?max_executions:int ->
  Program.t ->
  (unit, Wo_core.Drf0.report) result * stats
(** {!check_drf0_closure} with search-effort counters. *)

val check_drf0_par :
  ?strategy:strategy ->
  ?model:Wo_core.Sync_model.t ->
  ?max_events:int -> ?max_executions:int ->
  ?domains:int -> Program.t ->
  (unit, Wo_core.Drf0.report) result
(** {!check_drf0} with subtrees of the search checked on separate domains.
    The verdict is identical for every [domains] value; for a fixed
    [domains] the reported racy execution is deterministic (smallest
    frontier-task index wins).  @raise Limit_exceeded as for
    {!executions}. *)

(** {2 Stateful (DAG) exploration} *)

type stateful_stats = {
  sf_states : int;  (** DAG nodes expanded (tree re-expansions merged away) *)
  sf_distinct : int;  (** distinct states in the visited table *)
  sf_hits : int;  (** visited-table hits — subtrees pruned by dedup *)
  sf_executions : int;  (** complete executions reached *)
  sf_steals : int;  (** successful work-steals (parallel runs) *)
  sf_per_domain : int array;  (** DAG nodes expanded per domain *)
}
(** Search-effort counters of the stateful enumerators.  When a call is
    answered by the tree fallback, [sf_states]/[sf_executions] are the
    tree's counters, the table counters are 0 and [sf_per_domain] has one
    entry. *)

val outcomes_stateful :
  ?max_events:int -> ?max_executions:int ->
  ?domains:int -> Program.t -> Outcome.t list * stateful_stats
(** {!outcomes} as a DAG search under partial-order reduction: the
    program is run {!Prog_compile}d on {!Cinterp}, and states are claimed
    in a visited table keyed on exact packed snapshots
    ({!Cinterp.exact_key}), so schedules converging on the same state
    expand it once.  The outcome set is identical to {!outcomes} for
    every [domains] value (outcome collection commutes with dedup: a
    pruned subtree's outcomes were all reached from the first visit).
    [domains > 1] explores under a work-stealing scheduler with a shared
    sharded table; [max_executions] is a global bound, not per-domain.

    Programs beyond the compiler's packing bounds (see
    {!Prog_compile.compilable}) are answered by the tree enumerator
    instead: the result is {!outcomes}'s, bounds included.
    @raise Limit_exceeded as for {!executions}. *)

val check_drf0_stateful :
  ?model:Wo_core.Sync_model.t ->
  ?symmetry:bool ->
  ?max_events:int -> ?max_executions:int ->
  ?domains:int -> Program.t ->
  (unit, Wo_core.Drf0.report) result * stateful_stats
(** Definition 3 as a DAG search under partial-order reduction.  The
    visited table is keyed on canonical encodings
    ({!Cinterp.canonical_key}) — interpreter state plus the incremental
    checker's happens-before summary, quotiented by the isomorphisms the
    verdict cannot observe: location renaming, permutation of symmetric
    processors ([symmetry], default [true]; Dekker-style mirrored
    programs collapse onto one orbit representative), and per-coordinate
    rank compression of the clocks.  The verdict always equals
    {!check_drf0}'s; on racy programs the report is identical too —
    sequential walks visit children in tree order so the same first racy
    prefix is found (pruned subtrees are race-free), and parallel walks
    re-search sequentially once a race is known, so the report is
    deterministic across [domains].  [max_executions] is a global bound.

    Programs beyond the compiler's packing bounds and custom models (no
    incremental mode, so no summary to hash) are answered by the tree
    checker instead: the result is {!check_drf0_with_stats}'s.
    @raise Limit_exceeded as for {!executions}. *)
