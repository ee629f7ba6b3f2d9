(* Micro-operations flowing through the out-of-order backend.  One uop
   normally covers one instruction; with macro-op fusion enabled a uop
   may cover two (n_insns = 2). *)

open Riscv

type fusion =
  | Fused_lui_addi of int64 (* resulting constant *)
  | Fused_zext_w (* slli 32 ; srli 32 *)
  | Fused_sh_add of int (* slli rd,rs1,k ; add rd,rd,rs2 *)

type state = Waiting | Issued | Completed

type t = {
  seq : int; (* global program-order sequence number *)
  pc : int64;
  si : Predecode.t; (* the (first) instruction's static record *)
  second : Insn.t option; (* second instruction covered by fusion *)
  fusion : fusion option;
  n_insns : int;
  pred_next : int64; (* predicted next pc after this uop's insns *)
  (* sources: architectural numbers from [make], renamed in place at
     dispatch; [src_fp] says which are FP registers *)
  n_src : int;
  mutable ps0 : int;
  mutable ps1 : int;
  mutable ps2 : int;
  src_fp : bool array; (* shared, never written *)
  (* rename *)
  mutable prd : int; (* -1 = none *)
  mutable old_prd : int;
  (* dynamic status *)
  mutable state : state;
  mutable done_at : int;
  mutable result : int64;
  mutable next_pc : int64; (* actual *)
  mutable mispredicted : bool;
  mutable exc : (Trap.exc * int64) option;
  mutable priority : bool; (* PUBS high priority *)
  mutable squashed : bool;
  mutable in_iq : bool; (* resident in an issue queue: O(1) membership
                           for phase-2 issue revalidation *)
  mutable eliminated : bool; (* move-eliminated: result read at commit *)
  (* memory *)
  mutable vaddr : int64;
  mutable paddr : int64;
  mutable msize : int;
  mutable sdata : int64; (* store data *)
  mutable addr_ready : bool;
  mutable mmio : bool;
  mutable load_value : int64;
  mutable mem_cycle : int; (* when the access touched memory *)
  mutable sc_failed : bool;
  mutable csr_read : (int * int64) option;
}

let insn u = u.si.Predecode.insn

(* Pipelined loads enter the LQ, stores the SQ (LR/SC/AMO execute at
   the ROB head). *)
let is_load u = u.si.Predecode.uses_lq

let is_store u = u.si.Predecode.uses_sq

(* The [i]th architectural source.  A fused pair reads the pair's
   external sources (and writes its first instruction's destination). *)
let arch_src u i =
  match (u.fusion, u.si.Predecode.insn, u.second) with
  | None, _, _ -> u.si.Predecode.srcs.(i)
  | Some Fused_zext_w, Op_imm (SLL, _, rs, _), _ -> rs
  | Some (Fused_sh_add _), Op_imm (SLL, rd, rs1, _), Some (Op (ADD, _, ra, rb))
    ->
      if i = 0 then rs1 else if ra = rd then rb else ra
  | Some _, _, _ -> invalid_arg "Uop.arch_src"

let n_arch_srcs (si : Predecode.t) = function
  | None -> Array.length si.srcs
  | Some (Fused_lui_addi _) -> 0
  | Some Fused_zext_w -> 1
  | Some (Fused_sh_add _) -> 2

let psrc u i = match i with 0 -> u.ps0 | 1 -> u.ps1 | _ -> u.ps2

let set_psrc u i p =
  match i with 0 -> u.ps0 <- p | 1 -> u.ps1 <- p | _ -> u.ps2 <- p

let make ~seq ~pc ~si ~second ~fusion ~pred_next : t =
  let n_insns = match second with Some _ -> 2 | None -> 1 in
  let u =
    {
      seq;
      pc;
      si;
      second;
      fusion;
      n_insns;
      pred_next;
      n_src = n_arch_srcs si fusion;
      ps0 = -1;
      ps1 = -1;
      ps2 = -1;
      src_fp =
        (match fusion with None -> si.src_fp | Some _ -> Predecode.int_srcs);
      prd = -1;
      old_prd = -1;
      state = Waiting;
      done_at = max_int;
      result = 0L;
      next_pc = pred_next;
      mispredicted = false;
      exc = None;
      priority = false;
      squashed = false;
      in_iq = false;
      eliminated = false;
      vaddr = 0L;
      paddr = 0L;
      msize = 0;
      sdata = 0L;
      addr_ready = false;
      mmio = false;
      load_value = 0L;
      mem_cycle = 0;
      sc_failed = false;
      csr_read = None;
    }
  in
  for i = 0 to u.n_src - 1 do
    set_psrc u i (arch_src u i)
  done;
  u

(* What a freed queue or plan-buffer slot holds: one shared uop, never
   written, so an empty slot keeps no retired or squashed uop alive (nor
   in a LightSSS image).  Occupancy comes from each structure's count,
   never from comparing against this value: a restored image holds its
   own copy of it. *)
let sentinel =
  make ~seq:(-1) ~pc:0L ~si:Predecode.none ~second:None ~fusion:None
    ~pred_next:0L

(* Age-ordered uop queues (the issue queues, the LQ and the SQ) are
   arrays whose first [n] slots are live.  These close gaps in place,
   keeping age order, reset the freed slots to [sentinel] and return
   the new count. *)
let compact (q : t array) n ~(keep : t -> bool) =
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let u = q.(i) in
    if keep u then begin
      q.(!kept) <- u;
      incr kept
    end
  done;
  Array.fill q !kept (n - !kept) sentinel;
  !kept

let remove_seq (q : t array) n seq =
  let i = ref 0 in
  while !i < n && q.(!i).seq <> seq do
    incr i
  done;
  if !i >= n then n
  else begin
    Array.blit q (!i + 1) q !i (n - !i - 1);
    q.(n - 1) <- sentinel;
    n - 1
  end
