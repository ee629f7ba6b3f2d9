(* The Global Memory of the multi-core diff-rule (§III-B2b).

   Records every store that enters the cache hierarchy of the DUT
   (store-buffer drains, SC and AMO writes, from all harts), with the
   drain cycle -- the "additional historical information" the paper's
   checker keeps.

   When a single-core REF's load disagrees with the DUT, DiffTest
   consults this history: the DUT value is legal if, byte by byte, it
   matches either the currently drained value or a value that was only
   overwritten within the load's read window.  A value overwritten
   long before the load read memory can no longer legally be observed
   -- that is how the injected §IV-C stale-grant bug is reported as a
   "data mismatch between DUT and the Global Memory".

   Storage is word-granular (8-byte aligned) with per-entry byte
   masks, so the table stays proportional to the stored footprint in
   words, not bytes.

   Pruning.  The reference semantics is eager: every record of a word
   first drops each older entry whose every byte was overwritten, by
   the next newer entry covering that byte, before [now - retention]
   ([prune] in test/test_difftest.ml keeps that implementation as the
   model).  Running it on every drain costs the whole history of the
   word, and a spinlock word holds thousands of entries inside the
   retention window.  Here a record only appends; a sweep applies the
   eager rule when the history has doubled since the last one, so a
   drain costs amortised O(1).  The entries in between are logically
   removed: the queries recompute which of them eager pruning would
   have dropped and skip those, both as candidates and as overwrites.

   That is exact because, while a word's cycles never decrease, one
   eager prune at the newest record's cycle drops exactly what the
   per-record prunes would have dropped together: an entry dropped
   earlier was overwritten before an older cutoff, and in cycle order
   everything it shadowed was overwritten earlier still.  A LightSSS
   debug replay records into the live table from an earlier cycle, so
   a word's cycles can go backwards.  Such a record, and every record
   while the word's history is out of cycle order, prunes eagerly as
   the reference does. *)

(* One word's history, oldest first.  Entry [i] packs its drain cycle
   and byte mask in [meta.(i)]; its value bytes sit at
   [vals.[8i + lane]] (only the masked lanes are meaningful). *)
type history = {
  mutable meta : int array;
  mutable vals : Bytes.t;
  mutable len : int;
  mutable swept : int; (* [len] after the last sweep *)
  mutable exact : bool; (* no entry is logically removed *)
  mutable ordered : bool; (* cycles never decrease along the history *)
}

module Words = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash w = w land max_int
end)

type t = { mutable words : history Words.t }

(* Loads are judged at the cycle they read memory; the slack covers
   drain/check ordering inside one simulator tick. *)
let slack = 8

(* A superseded value must be retained while any load that read it can
   still be awaiting its commit-time check. *)
let retention = 8192

let create () = { words = Words.create (1 lsl 14) }

let cycle_of m = m asr 8

let mask_of m = m land 0xFF

(* The eager rule for one entry, visited newest to oldest: [shadow.(b)]
   is the cycle of the next newer entry covering byte [b] (max_int if
   none).  The entry survives if some byte of it is still current or
   was overwritten at or after [cutoff]. *)
let survives shadow ~cutoff m =
  let mask = mask_of m and cycle = cycle_of m in
  let useful = ref false in
  for b = 0 to 7 do
    if mask land (1 lsl b) <> 0 then begin
      if shadow.(b) >= cutoff then useful := true;
      shadow.(b) <- cycle
    end
  done;
  !useful

(* Drop, in place, what the eager prune at [cutoff] drops. *)
let sweep h ~cutoff =
  let shadow = Array.make 8 max_int in
  for i = h.len - 1 downto 0 do
    let m = h.meta.(i) in
    if not (survives shadow ~cutoff m) then h.meta.(i) <- m land lnot 0xFF
  done;
  let j = ref 0 in
  for i = 0 to h.len - 1 do
    let m = h.meta.(i) in
    if mask_of m <> 0 then begin
      if !j <> i then begin
        h.meta.(!j) <- m;
        Bytes.blit h.vals (8 * i) h.vals (8 * !j) 8
      end;
      incr j
    end
  done;
  h.len <- !j;
  h.swept <- !j;
  h.exact <- true

let in_order h =
  let ok = ref true in
  for i = 1 to h.len - 1 do
    if cycle_of h.meta.(i) < cycle_of h.meta.(i - 1) then ok := false
  done;
  !ok

let history t word =
  match Words.find t.words word with
  | h -> h
  | exception Not_found ->
      let h =
        {
          meta = [| 0 |];
          vals = Bytes.make 8 '\000';
          len = 0;
          swept = 0;
          exact = true;
          ordered = true;
        }
      in
      Words.add t.words word h;
      h

let grow h =
  let cap = 2 * h.len in
  let meta = Array.make cap 0 and vals = Bytes.create (8 * cap) in
  Array.blit h.meta 0 meta 0 h.len;
  Bytes.blit h.vals 0 vals 0 (8 * h.len);
  h.meta <- meta;
  h.vals <- vals

(* Record that a store drained at [cycle] wrote lanes [lane, lane + n)
   of this word with bytes [shift, shift + n) of [value]. *)
let append h ~cycle ~lane ~n ~shift ~(value : int64) =
  let lazy_ok =
    h.len = 0 || (h.ordered && cycle >= cycle_of h.meta.(h.len - 1))
  in
  if not lazy_ok then begin
    (* a rewind, or a history a rewind left out of cycle order: prune
       eagerly, exactly as the reference does before every record *)
    if not h.exact then
      sweep h ~cutoff:(cycle_of h.meta.(h.len - 1) - retention);
    sweep h ~cutoff:(cycle - retention)
  end;
  if h.len = Array.length h.meta then grow h;
  let k = h.len in
  h.meta.(k) <- (cycle lsl 8) lor (((1 lsl n) - 1) lsl lane);
  for j = 0 to n - 1 do
    Bytes.unsafe_set h.vals
      ((8 * k) + lane + j)
      (Char.unsafe_chr
         (Int64.to_int (Int64.shift_right_logical value (8 * (shift + j)))
         land 0xFF))
  done;
  h.len <- k + 1;
  if lazy_ok then begin
    (* this record's prune stays pending until the history doubles *)
    h.exact <- false;
    if h.len > (2 * h.swept) + 8 then sweep h ~cutoff:(cycle - retention)
  end
  else begin
    h.exact <- true;
    h.ordered <- in_order h;
    h.swept <- h.len
  end

let record (t : t) ~(cycle : int) ~(paddr : int64) ~(size : int)
    ~(value : int64) =
  (* split into the (one or two) aligned words the store touches *)
  let i = ref 0 in
  while !i < size do
    let a = Int64.to_int paddr + !i in
    let lane = a land 7 in
    (* bytes of this store landing in this word *)
    let n = min (size - !i) (8 - lane) in
    append (history t (a lsr 3)) ~cycle ~lane ~n ~shift:!i ~value;
    i := !i + n
  done

let byte_of v lane = Int64.to_int (Int64.shift_right_logical v (8 * lane)) land 0xFF

let stored h i lane = Char.code (Bytes.get h.vals ((8 * i) + lane))

(* Legality of one byte (word index + lane) holding [b] for a load
   that read memory at cycle [at], walking the logical history newest
   first. *)
let byte_ok (t : t) ~(at : int) ~(word : int) ~(lane : int) (b : int) :
    [ `Ok | `Stale | `Unrecorded ] =
  match Words.find_opt t.words word with
  | None -> `Unrecorded
  | Some h ->
      let shadow = Array.make 8 max_int in
      let cutoff =
        if h.len = 0 then 0 else cycle_of h.meta.(h.len - 1) - retention
      in
      let rec go i ~overwrite =
        if i < 0 then if overwrite = max_int then `Unrecorded else `Stale
        else
          let m = h.meta.(i) in
          if (h.exact || survives shadow ~cutoff m)
             && mask_of m land (1 lsl lane) <> 0
          then
            if stored h i lane = b && overwrite >= at - slack then `Ok
            else go (i - 1) ~overwrite:(cycle_of m)
          else go (i - 1) ~overwrite
      in
      go (h.len - 1) ~overwrite:max_int

(* Is [value], read from memory at cycle [at], justifiable from the
   drained-store history?  Bytes never stored come from the initial
   image and are unconstrained. *)
let compatible (t : t) ~(at : int) ~(paddr : int64) ~(size : int)
    ~(value : int64) : bool =
  let ok = ref true in
  for i = 0 to size - 1 do
    let a = Int64.to_int paddr + i in
    match byte_ok t ~at ~word:(a lsr 3) ~lane:(a land 7) (byte_of value i) with
    | `Ok | `Unrecorded -> ()
    | `Stale -> ok := false
  done;
  !ok

(* The currently drained value, if every byte has been stored.  The
   newest entry covering a byte is never pruned, so no liveness check
   is needed. *)
let lookup (t : t) ~(paddr : int64) ~(size : int) : int64 option =
  let v = ref 0L in
  let all = ref true in
  for i = size - 1 downto 0 do
    let a = Int64.to_int paddr + i in
    let lane = a land 7 in
    let byte =
      match Words.find_opt t.words (a lsr 3) with
      | None -> None
      | Some h ->
          let rec newest k =
            if k < 0 then None
            else if mask_of h.meta.(k) land (1 lsl lane) <> 0 then
              Some (stored h k lane)
            else newest (k - 1)
          in
          newest (h.len - 1)
    in
    match byte with
    | Some b -> v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
    | None -> all := false
  done;
  if !all then Some !v else None

let history_length (t : t) ~(paddr : int64) : int =
  match Words.find_opt t.words (Int64.to_int paddr lsr 3) with
  | None -> 0
  | Some h -> h.len

let detach (t : t) : unit -> unit =
  let words = t.words in
  t.words <- Words.create 1;
  fun () -> t.words <- words

let share (t : t) ~(from : t) = t.words <- from.words
