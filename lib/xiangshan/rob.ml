(* Re-order buffer: a window of sequence numbers over the core's uop
   rows.  The rows are the ROB's storage (one reusable row per slot,
   see [Uop]); pushing a uop only moves the tail, since dispatch
   initialised its row in place. *)

type t = {
  uops : Uop.t;
  cap : int;
  mutable head : int; (* oldest live seq *)
  mutable tail : int; (* next seq to allocate *)
  mutable swapped : int;
      (* fault injection: the head seq at which the two oldest entries
         were exchanged, -1 = none *)
}

let create ~size =
  { uops = Uop.create ~cap:size; cap = size; head = 0; tail = 0; swapped = -1 }

let count t = t.tail - t.head

(* While a swapped pair is half retired, its older uop is still live
   one position behind the head: keep the tail off its row. *)
let is_full t =
  count t >= t.cap
  || t.swapped >= 0
     && t.swapped = t.head - 1
     && t.tail - t.swapped >= Uop.rows t.uops

let is_empty t = count t = 0

let push t seq =
  assert (not (is_full t));
  assert (seq = t.tail);
  t.tail <- t.tail + 1

(* The seq that retires next: the head, unless the two oldest entries
   were exchanged. *)
let head_seq t =
  if is_empty t then invalid_arg "Rob.head_seq: empty";
  if t.swapped < 0 then t.head
  else if t.swapped = t.head then t.head + 1
  else t.swapped (* = head - 1: the older of the pair is left *)

let pop_head t =
  assert (not (is_empty t));
  t.head <- t.head + 1;
  if t.swapped >= 0 && t.head > t.swapped + 1 then t.swapped <- -1

let mem t seq = seq >= t.head && seq < t.tail

(* Squash every uop with seq > [after] (marking its row), and return
   the old tail: the squashed uops are [tail, old tail), which the
   caller walks youngest-first for rename rollback.  [after] = head - 1
   squashes everything. *)
let squash_younger t ~after =
  let old_tail = t.tail in
  let new_tail = max t.head (after + 1) in
  for seq = old_tail - 1 downto new_tail do
    Uop.set_flag t.uops (Uop.row t.uops seq) Uop.b_squashed true
  done;
  t.tail <- new_tail;
  if t.swapped >= 0 && new_tail < t.swapped + 2 then t.swapped <- -1;
  old_tail

(* Fault injection: exchange the two oldest entries so they retire out
   of program order.  Only applies when both are completed, exception
   free and past their completion cycle -- the swapped pair then
   commits immediately, before any intervening flush can mask it.
   Exchanging a pair that is still exchanged restores program order. *)
let swap_head_next t ~now : bool =
  count t >= 2
  && (t.swapped < 0 || t.swapped = t.head)
  &&
  let u = t.uops in
  let ready r =
    Uop.get u r Uop.i_state = Uop.completed
    && Uop.get u r Uop.i_done_at <= now
    && (not (Uop.flag u r Uop.b_faulted))
    && not (Uop.flag u r Uop.b_squashed)
  in
  ready (Uop.row u t.head)
  && ready (Uop.row u (t.head + 1))
  && begin
       t.swapped <- (if t.swapped = t.head then -1 else t.head);
       true
     end
