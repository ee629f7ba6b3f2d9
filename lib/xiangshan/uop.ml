(* Micro-operations flowing through the out-of-order backend, resident
   in the ROB.  One uop normally covers one instruction; with macro-op
   fusion enabled a uop may cover two (n_insns = 2).

   A core's uops live in one [t], a row per ROB slot.  Dispatch
   re-initialises the row of the new uop in place, so dispatching
   allocates nothing.  A row's int fields are adjacent in one int
   array and its 64-bit fields adjacent, unboxed, in one [Bytes], so
   the fields a stage touches together share a few cache lines, and no
   row points at a boxed value (a young box stored into a long-lived
   array pays the write barrier).  Uop [seq] lives in row
   [seq land mask]; the row count is a power of two of at least the
   ROB capacity, so the rows of live uops never collide.  A row is
   reused once its uop retired or was squashed: a queue entry that
   outlives its retired uop sees a different seq in the row (the
   generation check, [holds]).  A squashed uop's seq is reallocated
   from the new ROB tail, so a flush drops every entry naming a
   squashed uop instead. *)

open Riscv

type fusion =
  | Fused_lui_addi of int64 (* resulting constant *)
  | Fused_zext_w (* slli 32 ; srli 32 *)
  | Fused_sh_add of int (* slli rd,rs1,k ; add rd,rd,rs2 *)

(* Int fields: offsets within a row of [ints]. *)
let i_seq = 0 (* the uop the row holds (its generation), -1 = unused *)

let i_state = 1

let i_flags = 2

let i_n_src = 3

(* the sources: architectural numbers from [init], renamed in place at
   dispatch *)
let i_ps0 = 4

let i_ps1 = 5

let i_ps2 = 6

let i_prd = 7 (* -1 = none *)

let i_old_prd = 8

let i_done_at = 9

let i_fusion = 10

let i_msize = 11

let i_mem_cycle = 12 (* when the access touched memory *)

let i_csr_addr = 13
(* the CSR read at commit (its old value is the result), -1 = none *)

let ints_per_row = 16 (* [lsl 4] *)

(* 64-bit fields: offsets within a row of [words], 8 bytes each. *)
let w_pc = 0

let w_pred_next = 1 (* predicted next pc after the uop's insns *)

let w_next_pc = 2 (* actual *)

let w_result = 3

let w_vaddr = 4

let w_paddr = 5

let w_sdata = 6 (* store data *)

let w_load_value = 7

let words_per_row = 8 (* 64 bytes, [lsl 6] *)

(* [i_state] values *)
let waiting = 0

let issued = 1

let completed = 2

(* [i_flags] bits *)
let b_faulted = 1

let b_mispredicted = 2

let b_priority = 4 (* PUBS high priority *)

let b_squashed = 8

let b_in_iq = 16
(* resident in an issue queue: O(1) membership for phase-2 issue
   revalidation *)

let b_eliminated = 32 (* move-eliminated: result read at commit *)

let b_addr_ready = 64

let b_mmio = 128

let b_sc_failed = 256

(* [i_fusion] tags; [imm] holds the payload *)
let no_fusion = 0

let lui_addi = 1 (* imm = the constant *)

let zext_w = 2

let sh_add = 3 (* imm = the shift amount *)

type t = {
  mask : int;
  ints : int array;
  words : Bytes.t;
  si : Predecode.t array; (* the (first) instruction's static record *)
  second : Predecode.t array; (* the fusion partner's, [Predecode.none] *)
  (* rarely written: exceptions and fusion payloads *)
  exc : Trap.exc array; (* meaningful with [b_faulted] *)
  tval : Bytes.t;
  imm : Bytes.t;
}

let create ~cap =
  let rows = ref 1 in
  while !rows < cap do
    rows := 2 * !rows
  done;
  let rows = !rows in
  let ints = Array.make (rows * ints_per_row) 0 in
  for r = 0 to rows - 1 do
    ints.((r lsl 4) lor i_seq) <- -1
  done;
  {
    mask = rows - 1;
    ints;
    words = Bytes.make (8 * words_per_row * rows) '\000';
    si = Array.make rows Predecode.none;
    second = Array.make rows Predecode.none;
    exc = Array.make rows Trap.Illegal_instruction;
    tval = Bytes.make (8 * rows) '\000';
    imm = Bytes.make (8 * rows) '\000';
  }

let[@inline] row t seq = seq land t.mask

let rows t = t.mask + 1

let[@inline] get t r f = t.ints.((r lsl 4) lor f)

let[@inline] set t r f v = t.ints.((r lsl 4) lor f) <- v

let[@inline] flag t r b = get t r i_flags land b <> 0

let[@inline] set_flag t r b on =
  let f = get t r i_flags in
  set t r i_flags (if on then f lor b else f land lnot b)

let[@inline] get64 t r f = Bytes.get_int64_ne t.words ((r lsl 6) lor (f lsl 3))

let[@inline] set64 t r f v =
  Bytes.set_int64_ne t.words ((r lsl 6) lor (f lsl 3)) v

let[@inline] holds t seq = seq >= 0 && get t (row t seq) i_seq = seq

let[@inline] live t seq = holds t seq && not (flag t (row t seq) b_squashed)

let[@inline] si t r = t.si.(r)

let[@inline] second t r = t.second.(r)

let[@inline] exc t r = t.exc.(r)

let[@inline] tval t r = Bytes.get_int64_ne t.tval (r lsl 3)

let[@inline] imm t r = Bytes.get_int64_ne t.imm (r lsl 3)

let[@inline] insn t r = t.si.(r).Predecode.insn

(* Pipelined loads enter the LQ, stores the SQ (LR/SC/AMO execute at
   the ROB head). *)
let[@inline] is_load t r = t.si.(r).Predecode.uses_lq

let[@inline] is_store t r = t.si.(r).Predecode.uses_sq

let[@inline] n_insns t r = if get t r i_fusion = no_fusion then 1 else 2

(* The [i]th architectural source.  A fused pair reads the pair's
   external sources (and writes its first instruction's destination). *)
let arch_src t r i =
  let f = get t r i_fusion in
  if f = no_fusion then t.si.(r).Predecode.srcs.(i)
  else
    match (t.si.(r).Predecode.insn, t.second.(r).Predecode.insn) with
    | Op_imm (SLL, _, rs, _), _ when f = zext_w -> rs
    | Op_imm (SLL, rd, rs1, _), Op (ADD, _, ra, rb) when f = sh_add ->
        if i = 0 then rs1 else if ra = rd then rb else ra
    | _ -> invalid_arg "Uop.arch_src"

let[@inline] src_fp t r i =
  get t r i_fusion = no_fusion && t.si.(r).Predecode.src_fp.(i)

let[@inline] psrc t r i = get t r (i_ps0 + i)

let[@inline] set_psrc t r i p = set t r (i_ps0 + i) p

let set_exc t r exc tval =
  set_flag t r b_faulted true;
  t.exc.(r) <- exc;
  Bytes.set_int64_ne t.tval (r lsl 3) tval

(* Re-initialise row [seq land mask] as a waiting uop whose sources
   hold their architectural numbers.  [pc] and [pred_next] are stored
   unboxed, so the boxes the caller passes are not retained.  Only the
   fields some stage reads before another writes them are reset. *)
let init t ~seq ~pc ~(si : Predecode.t) ~(second : Predecode.t)
    ~(fusion : fusion option) ~pred_next =
  let r = seq land t.mask in
  set t r i_seq seq;
  t.si.(r) <- si;
  (match fusion with
  | None ->
      set t r i_fusion no_fusion;
      set t r i_n_src (Array.length si.srcs)
  | Some f ->
      t.second.(r) <- second;
      let tag, payload, n =
        match f with
        | Fused_lui_addi c -> (lui_addi, c, 0)
        | Fused_zext_w -> (zext_w, 0L, 1)
        | Fused_sh_add k -> (sh_add, Int64.of_int k, 2)
      in
      set t r i_fusion tag;
      Bytes.set_int64_ne t.imm (r lsl 3) payload;
      set t r i_n_src n);
  for i = 0 to get t r i_n_src - 1 do
    set_psrc t r i (arch_src t r i)
  done;
  set t r i_state waiting;
  set t r i_flags 0;
  set t r i_prd (-1);
  set t r i_old_prd (-1);
  set t r i_done_at max_int;
  set t r i_csr_addr (-1);
  set t r i_mem_cycle 0 (* a store never sets it *);
  set64 t r w_pc pc;
  set64 t r w_pred_next pred_next;
  set64 t r w_next_pc pred_next;
  set64 t r w_result 0L

(* Drop the row's pointers once its uop retired or was squashed, so a
   LightSSS image carries the static records of in-flight uops only
   (only a fused row points at a second record). *)
let release t r =
  t.si.(r) <- Predecode.none;
  if get t r i_fusion <> no_fusion then t.second.(r) <- Predecode.none

(* Age-ordered uop queues (the issue queues, the LQ and the SQ) are int
   arrays of sequence numbers whose first [n] slots are live; free slots
   hold -1.  These close gaps in place, keeping age order, and return
   the new count. *)

(* Drop the entries whose uops were squashed, clearing their in-IQ
   flag.  Retirement removes a uop from every queue, so an entry whose
   row was reused should not exist; if one did, its uop retired, not
   squashed, and the entry is kept. *)
let drop_squashed t (q : int array) n =
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let seq = q.(i) in
    let r = seq land t.mask in
    if get t r i_seq = seq && flag t r b_squashed then
      set_flag t r b_in_iq false
    else begin
      q.(!kept) <- seq;
      incr kept
    end
  done;
  Array.fill q !kept (n - !kept) (-1);
  !kept

let remove_seq (q : int array) n seq =
  let i = ref 0 in
  while !i < n && q.(!i) <> seq do
    incr i
  done;
  if !i >= n then n
  else begin
    Array.blit q (!i + 1) q !i (n - !i - 1);
    q.(n - 1) <- -1;
    n - 1
  end
