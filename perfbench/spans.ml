(* In-memory span recorder for the traced run.

   A span is (layer, start, end, parent), stored in growable int arrays so
   that opening and closing one allocates nothing on the hot path.  Spans
   are recorded only from the benchmark's own code, around calls into the
   program's public functions; the program's ambient observability sink is
   never enabled, so the traced program is the untraced one plus clock
   reads at the layer boundaries. *)

type layer =
  | Iteration
  | Synth
  | Plan
  | Store_open
  | Store_find
  | Store_add
  | Store_sync
  | Shard
  | Enumerate
  | Relaxed
  | Cell
  | Runner
  | Coherent
  | Uncached
  | Ordering
  | Replay
  | Report

let all =
  [|
    Iteration; Synth; Plan; Store_open; Store_find; Store_add; Store_sync;
    Shard; Enumerate; Relaxed; Cell; Runner; Coherent; Uncached; Ordering;
    Replay; Report;
  |]

let index = function
  | Iteration -> 0
  | Synth -> 1
  | Plan -> 2
  | Store_open -> 3
  | Store_find -> 4
  | Store_add -> 5
  | Store_sync -> 6
  | Shard -> 7
  | Enumerate -> 8
  | Relaxed -> 9
  | Cell -> 10
  | Runner -> 11
  | Coherent -> 12
  | Uncached -> 13
  | Ordering -> 14
  | Replay -> 15
  | Report -> 16

let name = function
  | Iteration -> "iteration"
  | Synth -> "synth"
  | Plan -> "plan"
  | Store_open -> "store.open"
  | Store_find -> "store.find"
  | Store_add -> "store.add"
  | Store_sync -> "store.sync"
  | Shard -> "shard"
  | Enumerate -> "enumerate"
  | Relaxed -> "relaxed"
  | Cell -> "cell"
  | Runner -> "runner"
  | Coherent -> "machine.coherent"
  | Uncached -> "machine.uncached"
  | Ordering -> "machine.ordering"
  | Replay -> "verdict.replay"
  | Report -> "report"

(* Structural spans group work but do no layer's work themselves: their
   self time is what the trace leaves unattributed. *)
let structural = function
  | Iteration | Shard | Cell | Report -> true
  | _ -> false

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable len : int;
  mutable layer : layer array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable current : int;  (** innermost open span, -1 at top level *)
}

let create () =
  let cap = 1 lsl 16 in
  {
    len = 0;
    layer = Array.make cap Iteration;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    current = -1;
  }

let grow t =
  let cap = 2 * Array.length t.start in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.layer <- extend t.layer Iteration;
  t.start <- extend t.start 0;
  t.stop <- extend t.stop 0;
  t.parent <- extend t.parent 0

let enter t layer =
  if t.len = Array.length t.start then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.layer.(i) <- layer;
  t.parent.(i) <- t.current;
  t.stop.(i) <- -1;
  t.current <- i;
  t.start.(i) <- now_ns ();
  i

let leave t i =
  t.stop.(i) <- now_ns ();
  t.current <- t.parent.(i)

(* Drop span [i], which must be the last span but one and the parent of
   the last: the last span takes its place and its parent.  Lets a caller
   open a wrapper before it knows whether the wrapped call earns one. *)
let unwrap t i =
  let j = t.len - 1 in
  assert (j = i + 1 && t.parent.(j) = i && t.current = t.parent.(i));
  t.layer.(i) <- t.layer.(j);
  t.start.(i) <- t.start.(j);
  t.stop.(i) <- t.stop.(j);
  t.len <- j

let span t layer f =
  let i = enter t layer in
  match f () with
  | v ->
    leave t i;
    v
  | exception e ->
    leave t i;
    raise e

(* --- analysis ----------------------------------------------------------- *)

type summary = {
  self_s : float array;  (** self time per layer, indexed by {!index} *)
  nesting_errors : int;
      (** open spans, or children escaping their parent's interval *)
}

let duration t i = t.stop.(i) - t.start.(i)

(* A span's self time is its duration minus its children's; children of
   one parent never overlap (the recorder is single-threaded), so the
   self times of a well-nested tree add up to its roots' durations. *)
let summarize t =
  let n = Array.length all in
  let self_ns = Array.make n 0 in
  let child_ns = Array.make t.len 0 in
  let errors = ref 0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if t.stop.(i) < t.start.(i) then incr errors
    else if p >= 0 then begin
      if t.start.(i) < t.start.(p) || t.stop.(i) > t.stop.(p) then incr errors;
      child_ns.(p) <- child_ns.(p) + duration t i
    end
  done;
  for i = 0 to t.len - 1 do
    let k = index t.layer.(i) in
    self_ns.(k) <- self_ns.(k) + duration t i - child_ns.(i)
  done;
  {
    self_s = Array.map (fun ns -> float_of_int ns *. 1e-9) self_ns;
    nesting_errors = !errors;
  }

(* Durations in microseconds of every span of one layer. *)
let durations_us t layer =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if t.layer.(i) = layer then
      acc := (float_of_int (duration t i) *. 1e-3) :: !acc
  done;
  Array.of_list !acc

(* The spans of the last top-level span and its descendants, as
   [name, start_ns, end_ns, parent] rows with parents re-based to the
   row index (-1 for the root). *)
let last_tree_json t =
  let module J = Wo_obs.Json in
  let root = ref (-1) in
  for i = 0 to t.len - 1 do
    if t.parent.(i) < 0 then root := i
  done;
  if !root < 0 then J.List []
  else begin
    let base = !root in
    let t0 = t.start.(base) in
    J.List
      (List.init (t.len - base) (fun k ->
           let i = base + k in
           let p = t.parent.(i) in
           J.List
             [
               J.String (name t.layer.(i));
               J.Int (t.start.(i) - t0);
               J.Int (t.stop.(i) - t0);
               J.Int (if p < 0 then -1 else p - base);
             ]))
  end
