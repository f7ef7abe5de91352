(* Serials are issued densely from 0, so the set is a done flag per
   issued serial plus the low-water mark below which every serial is
   done.  A flag is written when its serial is issued, so [reset] need
   not clear any. *)
type t = {
  mutable next : int;
  mutable count : int;
  mutable low : int;
  mutable done_ : Bytes.t;
}

let create () = { next = 0; count = 0; low = 0; done_ = Bytes.make 16 '\000' }

let issue t =
  let s = t.next in
  if s >= Bytes.length t.done_ then
    t.done_ <- Bytes.extend t.done_ 0 (Bytes.length t.done_);
  Bytes.unsafe_set t.done_ s '\000';
  t.next <- s + 1;
  t.count <- t.count + 1;
  s

let mem t s = s >= t.low && s < t.next && Bytes.unsafe_get t.done_ s = '\000'

let complete t s =
  if not (mem t s) then invalid_arg "Serials.complete: not outstanding";
  Bytes.unsafe_set t.done_ s '\001';
  t.count <- t.count - 1;
  if s = t.low then begin
    let low = ref (s + 1) in
    while !low < t.next && Bytes.unsafe_get t.done_ !low <> '\000' do
      incr low
    done;
    t.low <- !low
  end

let count t = t.count

let min_outstanding t = if t.count = 0 then max_int else t.low

let reset t =
  t.next <- 0;
  t.count <- 0;
  t.low <- 0
