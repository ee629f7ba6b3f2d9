(* Re-order buffer: a ring buffer indexed by the global uop sequence
   number.  Free slots hold [Uop.sentinel], so a push stores the uop
   itself; liveness comes from [head]/[tail], never from the slot. *)

type t = {
  buf : Uop.t array;
  cap : int;
  mutable head : int; (* oldest live seq *)
  mutable tail : int; (* next seq to allocate *)
}

let create ~size =
  { buf = Array.make size Uop.sentinel; cap = size; head = 0; tail = 0 }

let count t = t.tail - t.head

let is_full t = count t >= t.cap

let is_empty t = count t = 0

let slot t seq = seq mod t.cap

let push t (u : Uop.t) =
  assert (not (is_full t));
  assert (u.Uop.seq = t.tail);
  t.buf.(slot t t.tail) <- u;
  t.tail <- t.tail + 1

let peek_head t : Uop.t =
  if is_empty t then invalid_arg "Rob.peek_head: empty";
  t.buf.(slot t t.head)

let pop_head t =
  assert (not (is_empty t));
  t.buf.(slot t t.head) <- Uop.sentinel;
  t.head <- t.head + 1

let get t seq : Uop.t option =
  if seq < t.head || seq >= t.tail then None else Some t.buf.(slot t seq)

(* Squash every uop with seq > [after]; returns them youngest-first
   (the order required for rename rollback).  [after] = head - 1
   squashes everything. *)
let squash_younger t ~after : Uop.t list =
  let squashed = ref [] in
  let new_tail = max t.head (after + 1) in
  for seq = t.tail - 1 downto new_tail do
    let u = t.buf.(slot t seq) in
    u.Uop.squashed <- true;
    squashed := u :: !squashed;
    t.buf.(slot t seq) <- Uop.sentinel
  done;
  t.tail <- new_tail;
  List.rev !squashed

(* Fault injection: exchange the two oldest entries so they retire out
   of program order.  Only applies when both are completed, exception
   free and past their completion cycle -- the swapped pair then
   commits immediately, before any intervening flush can mask it. *)
let swap_head_next t ~now : bool =
  count t >= 2
  &&
  let a = t.buf.(slot t t.head) and b = t.buf.(slot t (t.head + 1)) in
  a.Uop.state = Uop.Completed
  && b.Uop.state = Uop.Completed
  && a.Uop.done_at <= now && b.Uop.done_at <= now
  && a.Uop.exc = None && b.Uop.exc = None
  && (not a.Uop.squashed)
  && (not b.Uop.squashed)
  && begin
       t.buf.(slot t t.head) <- b;
       t.buf.(slot t (t.head + 1)) <- a;
       true
     end
