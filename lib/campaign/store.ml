let magic = "WOCAMPS1"

let header_len = 8

let rec_header_len = 12

(* Sanity bound on a single record: a cell verdict with a witness trace
   is a few hundred KB at the very worst; anything larger in a length
   field means we are reading garbage. *)
let max_part = 1 lsl 26

type entry = { e_off : int; e_klen : int; e_vlen : int }
(* [e_off] is the offset of the key bytes (past the record header). *)

type t = {
  fd : Unix.file_descr;
  file : string;
  index : (string, entry list) Hashtbl.t;  (* key digest -> entries, log order *)
  mutable tail : int;  (* append offset = end of last complete record *)
  mutable count : int;
  mutable live : int;  (* records that were first for their digest *)
  mutable dropped : int;
}

let fnv32 parts =
  let h = ref 0x811c9dc5 in
  List.iter
    (fun s ->
      String.iter
        (fun c ->
          h := !h lxor Char.code c;
          h := !h * 0x01000193 land 0xffffffff)
        s)
    parts;
  !h

let put_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let really_read fd buf off len =
  let got = ref 0 in
  (try
     while !got < len do
       let n = Unix.read fd buf (off + !got) (len - !got) in
       if n = 0 then raise Exit;
       got := !got + n
     done
   with Exit -> ());
  !got

(* Positioned read through the fd's shared offset — only safe on an fd
   with a single user (the writer handle, or a load-time scan).
   Concurrent readers go through the mmap'ed views below instead. *)
let pread_at fd ~off ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let buf = Bytes.create len in
  let got = really_read fd buf 0 len in
  if got = len then Some (Bytes.unsafe_to_string buf) else None

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let digest key = Digest.string key

let encode_record ~key ~value =
  let b =
    Buffer.create (rec_header_len + String.length key + String.length value)
  in
  put_u32 b (String.length key);
  put_u32 b (String.length value);
  put_u32 b (fnv32 [ key; value ]);
  Buffer.add_string b key;
  Buffer.add_string b value;
  Buffer.contents b

(* Walk the complete records in [start, size), calling [emit] for each;
   returns the offset just past the last complete record — the torn
   tail, if any, begins there.  The scan is strictly forward, so it
   streams through one reused buffer — a large store opens with a
   handful of big sequential reads, not two positioned reads per record
   (the warm-resume open would otherwise dominate). *)
let scan_fd fd ~start ~size ~emit =
  let cap = 1 lsl 20 in
  let buf = Bytes.create cap in
  let tail = ref start in
  let w_off = ref start in  (* file offset of buf.[0] *)
  let w_len = ref 0 in
  ignore (Unix.lseek fd start Unix.SEEK_SET);
  (* Make bytes [!tail, !tail+len) available in [buf]; strictly
     forward, so everything before !tail can be discarded. *)
  let ensure len =
    if len > cap then false
    else begin
      let keep = !w_off + !w_len - !tail in
      if keep > 0 && !tail > !w_off then
        Bytes.blit buf (!tail - !w_off) buf 0 keep;
      if !tail >= !w_off then begin
        w_off := !tail;
        w_len := max 0 keep
      end;
      let short = ref false in
      while (not !short) && !w_len < len do
        let n = Unix.read fd buf !w_len (cap - !w_len) in
        if n = 0 then short := true else w_len := !w_len + n
      done;
      !w_len >= len
    end
  in
  let get_str ~at len = Bytes.sub_string buf (at - !w_off) len in
  let ok = ref true in
  while !ok && !tail + rec_header_len <= size do
    if not (ensure rec_header_len) then ok := false
    else begin
      let hdr = get_str ~at:!tail rec_header_len in
      let klen = get_u32 hdr 0 and vlen = get_u32 hdr 4 in
      let sum = get_u32 hdr 8 in
      let rec_len = rec_header_len + klen + vlen in
      if
        klen <= 0 || klen > max_part || vlen < 0 || vlen > max_part
        || !tail + rec_len > size
      then ok := false
      else begin
        let payload =
          if ensure rec_len then
            Some (get_str ~at:(!tail + rec_header_len) (klen + vlen))
          else
            (* one record larger than the streaming buffer: positioned
               read, then re-seat the stream after it *)
            match pread_at fd ~off:(!tail + rec_header_len) ~len:(klen + vlen)
            with
            | Some p ->
              w_off := !tail + rec_len;
              w_len := 0;
              ignore (Unix.lseek fd !w_off Unix.SEEK_SET);
              Some p
            | None -> None
        in
        match payload with
        | None -> ok := false
        | Some payload ->
          let key = String.sub payload 0 klen in
          let value = String.sub payload klen vlen in
          if fnv32 [ key; value ] <> sum then ok := false
          else begin
            emit ~key
              { e_off = !tail + rec_header_len; e_klen = klen; e_vlen = vlen };
            tail := !tail + rec_len
          end
      end
    end
  done;
  !tail

let index_add t key entry =
  let d = digest key in
  (match Hashtbl.find_opt t.index d with
  | None ->
    t.live <- t.live + 1;
    Hashtbl.replace t.index d [ entry ]
  | Some prev -> Hashtbl.replace t.index d (prev @ [ entry ]));
  t.count <- t.count + 1

let check_magic fd file =
  match pread_at fd ~off:0 ~len:header_len with
  | Some m when m = magic -> ()
  | _ ->
    Unix.close fd;
    failwith (Printf.sprintf "campaign store %s: not a WOCAMPS1 log" file)

let openf file =
  let fd = Unix.openfile file [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  if size = 0 then begin
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    let n = Unix.write_substring fd magic 0 header_len in
    if n <> header_len then failwith "campaign store: short header write";
    {
      fd; file; index = Hashtbl.create 16; tail = header_len; count = 0;
      live = 0; dropped = 0;
    }
  end
  else begin
    check_magic fd file;
    (* Collect (digest, entry) pairs first, then build the index sized
       for the final record count: the digest buckets are allocated
       once, never rehashed mid-scan, and lookups on a freshly opened
       store meet a table at its final geometry — this is what pulled
       the lookup p99 tail (8.3 µs on E15) back towards the p50. *)
    let recs = ref [] and n = ref 0 in
    let tail =
      scan_fd fd ~start:header_len ~size ~emit:(fun ~key e ->
          recs := (digest key, e) :: !recs;
          incr n)
    in
    let t =
      {
        fd; file; index = Hashtbl.create (max 16 !n); tail; count = 0;
        live = 0; dropped = 0;
      }
    in
    List.iter
      (fun (d, e) ->
        (match Hashtbl.find_opt t.index d with
        | None ->
          t.live <- t.live + 1;
          Hashtbl.replace t.index d [ e ]
        | Some prev -> Hashtbl.replace t.index d (prev @ [ e ]));
        t.count <- t.count + 1)
      (List.rev !recs);
    if t.tail < size then begin
      t.dropped <- size - t.tail;
      Unix.ftruncate fd t.tail
    end;
    ignore (Unix.lseek fd t.tail Unix.SEEK_SET);
    t
  end

let close t = Unix.close t.fd

let path t = t.file

let length t = t.count

let live t = t.live

let dead_estimate t = t.count - t.live

let tail_dropped t = t.dropped

let find_entry t ~key =
  match Hashtbl.find_opt t.index (digest key) with
  | None -> None
  | Some entries ->
    List.find_opt
      (fun e ->
        match pread_at t.fd ~off:e.e_off ~len:e.e_klen with
        | Some k -> String.equal k key
        | None -> false)
      entries

let find t ~key =
  match find_entry t ~key with
  | None -> None
  | Some e -> pread_at t.fd ~off:(e.e_off + e.e_klen) ~len:e.e_vlen

let mem t ~key = find_entry t ~key <> None

let add t ~key ~value =
  let s = encode_record ~key ~value in
  ignore (Unix.lseek t.fd t.tail Unix.SEEK_SET);
  let n = Unix.write_substring t.fd s 0 (String.length s) in
  if n <> String.length s then failwith "campaign store: short record write";
  index_add t key
    {
      e_off = t.tail + rec_header_len;
      e_klen = String.length key;
      e_vlen = String.length value;
    };
  t.tail <- t.tail + String.length s

let sync t = Unix.fsync t.fd

let iter t f =
  (* Log order: collect entries and sort by offset. *)
  let all = ref [] in
  Hashtbl.iter (fun _ es -> all := es @ !all) t.index;
  let sorted = List.sort (fun a b -> compare a.e_off b.e_off) !all in
  List.iter
    (fun e ->
      match
        ( pread_at t.fd ~off:e.e_off ~len:e.e_klen,
          pread_at t.fd ~off:(e.e_off + e.e_klen) ~len:e.e_vlen )
      with
      | Some key, Some value -> f ~key ~value
      | _ -> ())
    sorted

(* --- compaction ------------------------------------------------------------- *)

type compact_stats = {
  cs_before_records : int;
  cs_after_records : int;
  cs_before_bytes : int;
  cs_after_bytes : int;
}

let fsync_dir file =
  match Unix.openfile (Filename.dirname file) [ Unix.O_RDONLY ] 0 with
  | dirfd ->
    (try Unix.fsync dirfd with Unix.Unix_error _ -> ());
    (try Unix.close dirfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let compact file =
  let t = openf file in
  let before_records = t.count and before_bytes = t.tail in
  let tmp = file ^ ".compact" in
  let kept, after_bytes =
    Fun.protect ~finally:(fun () -> close t) @@ fun () ->
    let out =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close out with Unix.Unix_error _ -> ())
    @@ fun () ->
    write_all out magic;
    (* First record per exact key survives ([find] returns the first:
       settled verdicts are immutable, so later duplicates are dead);
       the digest only routes — the full key bytes decide. *)
    let seen : (string, string list) Hashtbl.t =
      Hashtbl.create (max 16 t.live)
    in
    let kept = ref 0 and bytes = ref header_len in
    iter t (fun ~key ~value ->
        let d = digest key in
        let ks = Option.value ~default:[] (Hashtbl.find_opt seen d) in
        if not (List.exists (String.equal key) ks) then begin
          Hashtbl.replace seen d (key :: ks);
          let r = encode_record ~key ~value in
          write_all out r;
          incr kept;
          bytes := !bytes + String.length r
        end);
    Unix.fsync out;
    (!kept, !bytes)
  in
  (* The swap is a single rename of a fully-written, fsync'ed file: a
     crash at any point leaves either the old log or the new one, both
     complete and checksummed; the directory fsync makes the rename
     itself durable. *)
  Unix.rename tmp file;
  fsync_dir file;
  {
    cs_before_records = before_records;
    cs_after_records = kept;
    cs_before_bytes = before_bytes;
    cs_after_bytes = after_bytes;
  }

(* --- immutable read views ---------------------------------------------------- *)

module Dmap = Map.Make (String)

type view = {
  v_data :
    (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* the validated prefix [0, v_tail) of the log, mmap'ed *)
  v_index : entry list Dmap.t;  (* digest -> entries, log order *)
  v_tail : int;
  v_count : int;
}

let empty_data = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0

let map_prefix fd tail =
  if tail <= 0 then empty_data
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:0L Bigarray.char Bigarray.c_layout false [| tail |])

let empty_view = { v_data = empty_data; v_index = Dmap.empty; v_tail = header_len; v_count = 0 }

let view_index_add index key entry =
  let d = digest key in
  let prev = Option.value ~default:[] (Dmap.find_opt d index) in
  Dmap.add d (prev @ [ entry ]) index

let view_key_matches v e key =
  e.e_klen = String.length key
  &&
  let rec go i =
    i >= e.e_klen
    || Bigarray.Array1.unsafe_get v.v_data (e.e_off + i) = String.unsafe_get key i
       && go (i + 1)
  in
  go 0

let view_read v ~off ~len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get v.v_data (off + i))
  done;
  Bytes.unsafe_to_string b

let view_find_entry v ~key =
  match Dmap.find_opt (digest key) v.v_index with
  | None -> None
  | Some entries -> List.find_opt (fun e -> view_key_matches v e key) entries

let view_find v ~key =
  match view_find_entry v ~key with
  | None -> None
  | Some e -> Some (view_read v ~off:(e.e_off + e.e_klen) ~len:e.e_vlen)

let view_iter v f =
  let all = Dmap.fold (fun _ es acc -> es @ acc) v.v_index [] in
  let sorted = List.sort (fun a b -> compare a.e_off b.e_off) all in
  List.iter
    (fun e ->
      f
        ~key:(view_read v ~off:e.e_off ~len:e.e_klen)
        ~value:(view_read v ~off:(e.e_off + e.e_klen) ~len:e.e_vlen))
    sorted

module Snapshot = struct
  type s = { sn_fd : Unix.file_descr; sn_file : string; sn_view : view }

  (* Scan [start, size) of [fd] on top of [base]: complete records are
     indexed, the torn tail (if any) is left alone — a snapshot never
     writes, so a concurrent appender's in-flight record is simply not
     visible yet.  The checksum makes a half-written record
     indistinguishable from a torn tail, so a reader can never see a
     torn record as data. *)
  let extend fd base ~size =
    if size <= base.v_tail then base
    else begin
      let index = ref base.v_index and count = ref base.v_count in
      let tail =
        scan_fd fd ~start:base.v_tail ~size ~emit:(fun ~key e ->
            index := view_index_add !index key e;
            incr count)
      in
      {
        v_data = map_prefix fd tail;
        v_index = !index;
        v_tail = tail;
        v_count = !count;
      }
    end

  let load file =
    let fd = Unix.openfile file [ Unix.O_RDONLY ] 0 in
    let size = (Unix.fstat fd).Unix.st_size in
    if size = 0 then { sn_fd = fd; sn_file = file; sn_view = empty_view }
    else begin
      check_magic fd file;
      { sn_fd = fd; sn_file = file; sn_view = extend fd empty_view ~size }
    end

  let refresh s =
    let size = (Unix.fstat s.sn_fd).Unix.st_size in
    if size <= s.sn_view.v_tail then s
    else { s with sn_view = extend s.sn_fd s.sn_view ~size }

  let close s = Unix.close s.sn_fd

  let path s = s.sn_file

  let length s = s.sn_view.v_count

  let live s = Dmap.cardinal s.sn_view.v_index

  let superseded s = length s - live s

  let unreadable s =
    max 0 ((Unix.fstat s.sn_fd).Unix.st_size - s.sn_view.v_tail)

  let find s ~key = view_find s.sn_view ~key

  let mem s ~key = view_find_entry s.sn_view ~key <> None

  let iter s f = view_iter s.sn_view f
end

module Shared = struct
  type h = {
    sh_store : t;  (* the RDWR handle; only [add_if_absent] touches it *)
    sh_view : view Atomic.t;
    sh_lock : Mutex.t;
  }

  let view_of_store t =
    let index =
      Hashtbl.fold (fun d es acc -> Dmap.add d es acc) t.index Dmap.empty
    in
    { v_data = map_prefix t.fd t.tail; v_index = index; v_tail = t.tail;
      v_count = t.count }

  let openf file =
    let st = openf file in
    {
      sh_store = st;
      sh_view = Atomic.make (view_of_store st);
      sh_lock = Mutex.create ();
    }

  let find h ~key = view_find (Atomic.get h.sh_view) ~key

  let mem h ~key = view_find_entry (Atomic.get h.sh_view) ~key <> None

  let length h = (Atomic.get h.sh_view).v_count

  let path h = h.sh_store.file

  let add_if_absent h ~key ~value =
    Mutex.protect h.sh_lock @@ fun () ->
    let v = Atomic.get h.sh_view in
    if view_find_entry v ~key <> None then false
    else begin
      let st = h.sh_store in
      let entry =
        {
          e_off = st.tail + rec_header_len;
          e_klen = String.length key;
          e_vlen = String.length value;
        }
      in
      add st ~key ~value;
      (* Readers keep the old snapshot until this store: the new view
         maps the grown prefix and carries the one extra index entry —
         an O(log n) functional update, no reader ever blocks. *)
      Atomic.set h.sh_view
        {
          v_data = map_prefix st.fd st.tail;
          v_index = view_index_add v.v_index key entry;
          v_tail = st.tail;
          v_count = v.v_count + 1;
        };
      true
    end

  let sync h = Mutex.protect h.sh_lock (fun () -> sync h.sh_store)

  let close h = Mutex.protect h.sh_lock (fun () -> close h.sh_store)
end
