(* Checksummed append-only result journal (see journal.mli).

   Layout:   magic "MJNL0001" | frame(key) | frame(record)*
   frame:    length (4B LE) | crc32(payload) (4B LE) | payload

   The writer builds each frame in one buffer and hands it to a single
   EINTR-/short-write-safe write_all followed by fsync, so the only
   state a crash can leave behind is a torn final frame; the reader
   treats anything that does not check out -- short header, absurd
   length, short payload, CRC mismatch, Marshal failure -- as the end
   of the journal, never as an error.  Replay is therefore always a
   valid prefix of what was appended (the property test in
   test_journal.ml truncates a journal at every byte offset to prove
   exactly this). *)

let magic = "MJNL0001"

(* one frame must hold a marshalled campaign cell, not a memory dump *)
let max_record_bytes = 1 lsl 28

(* ---- CRC-32 (IEEE 802.3, reflected) ------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 (s : string) : int32 =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c :=
        Int32.logxor
          t.(Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl))
          (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ---- EINTR-/short-write-safe primitives -------------------------- *)

let rec write_all fd bytes off len =
  if len > 0 then begin
    match
      Host_chaos.pipe_io_interrupt ();
      Unix.write fd bytes off (Host_chaos.clamp_write len)
    with
    | n -> write_all fd bytes (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd bytes off len
  end

let rec fsync_retry fd =
  try Unix.fsync fd
  with Unix.Unix_error (Unix.EINTR, _, _) -> fsync_retry fd

(* ---- frames ------------------------------------------------------ *)

let le32 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xff))

let read_le32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let frame (payload : string) : bytes =
  let n = String.length payload in
  let b = Bytes.create (8 + n) in
  le32 b 0 n;
  le32 b 4 (Int32.to_int (crc32 payload) land 0xFFFFFFFF);
  Bytes.blit_string payload 0 b 8 n;
  b

(* Parse one frame at [off]; [None] on anything torn or corrupt. *)
let parse_frame (s : string) off : (string * int) option =
  let len = String.length s in
  if off + 8 > len then None
  else
    let n = read_le32 s off in
    let crc = read_le32 s (off + 4) in
    if n < 0 || n > max_record_bytes || off + 8 + n > len then None
    else
      let payload = String.sub s (off + 8) n in
      if Int32.to_int (crc32 payload) land 0xFFFFFFFF <> crc then None
      else Some (payload, off + 8 + n)

(* ---- read side --------------------------------------------------- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Some s

(* Replay: (key, records, offset of the first invalid byte). *)
let replay (s : string) : string option * Obj.t list * int =
  let len = String.length s in
  if len < String.length magic || String.sub s 0 (String.length magic) <> magic
  then (None, [], 0)
  else
    match parse_frame s (String.length magic) with
    | None -> (None, [], 0)
    | Some (key, off0) ->
        let rec go acc off =
          match parse_frame s off with
          | None -> (List.rev acc, off)
          | Some (payload, off') -> (
              match Marshal.from_string payload 0 with
              | v -> go (v :: acc) off'
              | exception _ -> (List.rev acc, off))
        in
        let records, valid_end = go [] off0 in
        (Some key, records, valid_end)

let scan ~path : string option * 'a list =
  match read_file path with
  | None -> (None, [])
  | Some s ->
      let key, records, _ = replay s in
      (key, Obj.magic records)

(* ---- write side -------------------------------------------------- *)

type t = {
  j_path : string;
  mutable j_fd : Unix.file_descr option;  (* None once degraded/closed *)
  mutable j_appended : int;
  mutable j_index : int;  (* absolute record index, incl. replayed *)
}

let degrade t reason =
  (match t.j_fd with
  | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.j_fd <- None;
  Printf.eprintf
    "journal: write to %s failed (%s); continuing without journaling\n%!"
    t.j_path reason

let open_ ~path ~key : t * 'a list =
  let fresh () =
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    let header = Bytes.of_string magic in
    write_all fd header 0 (Bytes.length header);
    let kf = frame key in
    write_all fd kf 0 (Bytes.length kf);
    fsync_retry fd;
    fd
  in
  match read_file path with
  | Some s when (match replay s with Some k, _, _ -> k = key | _ -> false) ->
      let _, records, valid_end = replay s in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      (* a torn tail from the interrupted run is dead bytes: cut it off
         so the next append extends the valid prefix *)
      Unix.ftruncate fd valid_end;
      ignore (Unix.lseek fd valid_end Unix.SEEK_SET);
      ( {
          j_path = path;
          j_fd = Some fd;
          j_appended = 0;
          j_index = List.length records;
        },
        Obj.magic records )
  | Some _ | None ->
      ({ j_path = path; j_fd = Some (fresh ()); j_appended = 0; j_index = 0 }, [])

let append t v =
  match t.j_fd with
  | None -> ()
  | Some fd -> (
      try
        Host_chaos.journal_append_check ~index:t.j_index;
        let f = frame (Marshal.to_string v []) in
        write_all fd f 0 (Bytes.length f);
        fsync_retry fd;
        t.j_appended <- t.j_appended + 1;
        t.j_index <- t.j_index + 1
      with
      | Unix.Unix_error (e, _, _) -> degrade t (Unix.error_message e)
      | Sys_error msg -> degrade t msg)

let active t = t.j_fd <> None

let appended t = t.j_appended

let sync t =
  match t.j_fd with
  | None -> ()
  | Some fd -> (
      try fsync_retry fd
      with Unix.Unix_error (e, _, _) -> degrade t (Unix.error_message e))

let close t =
  match t.j_fd with
  | None -> ()
  | Some fd ->
      (try fsync_retry fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.j_fd <- None

(* ---- whole-file atomic writes ------------------------------------ *)

let atomic_write_file ~path (contents : string) =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let b = Bytes.of_string contents in
  write_all fd b 0 (Bytes.length b);
  fsync_retry fd;
  Unix.close fd;
  Sys.rename tmp path;
  (* fsync the directory so the rename itself survives a crash *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
      (try fsync_retry dfd with Unix.Unix_error _ -> ());
      (try Unix.close dfd with Unix.Unix_error _ -> ())
