(* NEMU: the fast threaded-code interpreter (paper §III-D1), extended
   with superblock compilation.

   Every guest instruction is compiled once into a specialised OCaml
   closure (the "execution routine") whose operands -- register
   indices, immediates, even the pc -- are inlined at compile time.
   Straight-line runs of such closures (everything up to the next
   branch / jump / system instruction, the paper's trace locality) are
   fused into one *superblock*: a uop-cache entry whose [body] array
   is executed back-to-back by a single dispatch, bulk-updating
   [instret] and checking the run budget once per block instead of
   once per instruction.

   Entries are chained to each other at block granularity:

   - [seq]: the fall-through successor (the paper's "add 1 to upc");
   - [tgt]: the taken target of a direct branch or jump (block
     chaining);
   - indirect jumps query the hash list (❺ in Figure 7) in their
     terminal routine.

   On the fast path an executed superblock returns the next entry
   directly; no fetch, no decode, no pc maintenance.  Only on a chain
   miss does the engine fall back to the slow path (fetch + decode +
   compile + patch the chain).  Writes to x0 are redirected at compile
   time to the sink register slot (§III-D1b), and common
   pseudo-instruction forms (li / mv / nop / ret / beqz / bnez) get
   dedicated routines with their constant operands inlined (§III-D1c).

   Precision rules.  A trap raised by a body instruction retires that
   instruction too (as in [Exec_generic.step]) with a precise epc
   recovered from the per-entry offset tables -- bodies are not
   contiguous (unconditional jumps fold into the trace) and execute as
   coalesced multi-instruction slots, so both tables are indexed
   rather than computed as pc + 4i.  [run ~max_insns] retires
   *exactly* max_insns unless the machine exits -- checkpoints rely on
   this -- so when the remaining budget is smaller than a block, the
   block's body is stepped partially ([run_partial]) through the
   unfused per-instruction view.

   Every table is flushed whole when the machine's code epoch has
   moved (fence.i, sfence.vma, satp writes) and when a privilege's
   table reaches capacity: no chain can then point at a dropped
   entry. *)

open Riscv
open Bigarray

type entry = {
  e_pc : int64;
  mutable e_len : int; (* instructions retired by a full pass *)
  mutable body : (unit -> unit) array;
      (* coalesced execution slots: up to four guest instructions per
         dispatch.  Closures that can raise (loads, stores) may only
         appear as a slot's *final* element -- everything before them
         is non-raising ALU/FP work -- which is what makes the trap
         bookkeeping below exact. *)
  mutable steps : (unit -> unit) array;
      (* the same instructions unfused, one per instruction: the
         partial-execution path ([run_partial]) must stop at an exact
         instruction count, which coalesced slots cannot. *)
  mutable offs : int array;
      (* byte offset from [e_pc] of each *instruction* (indexes
         [steps]), plus one final slot for the pc after the last one.
         Bodies are not contiguous: unconditional jumps are folded
         into the trace, so pc recovery indexes this table instead of
         assuming pc = e_pc + 4i. *)
  mutable slot_ret : int array;
      (* per-slot: guest instructions retired through the *end* of the
         slot.  A raise can only come from a slot's final instruction
         (earlier ones are non-raising by construction), so this is
         the exact retire count when slot i raises. *)
  mutable slot_offs : int array;
      (* per-slot byte offset from [e_pc] of the slot's *final*
         instruction -- the only one that can raise *)
  mutable exec : exec_fn;
  mutable seq : entry option;
  mutable tgt : entry option;
}

and exec_fn = entry -> entry option

type patch_slot = Patch_seq | Patch_tgt | Patch_none

type t = {
  m : Mach.t;
  caches : (int64, entry) Hashtbl.t array; (* one hash list per privilege *)
  mutable cache : (int64, entry) Hashtbl.t; (* the active privilege's list *)
  capacity : int;
  mutable patch : entry option;
  mutable patch_slot : patch_slot;
  mutable epoch : int; (* the code epoch the tables were filled in *)
  mutable flushes : int;
  mutable slow_lookups : int;
  mutable compiled : int;
  (* BBV profiling (§III-D3): [build_terminal] resolves [prof_site pc]
     once per control-flow terminator, and the terminator calls the
     resolved routine on every edge it takes while [prof_on] *)
  mutable prof_on : bool;
  mutable prof_site : int64 -> unit -> unit;
}

(* Raised by a body store routine when the guest hit the exit device
   mid-block; the block handler converts it into a clean stop with a
   precise pc and instret. *)
exception Mach_exited

let max_block = 64

(* Slot combinators for coalesced bodies: one dispatch, several guest
   instructions.  Only closures that cannot raise are combined. *)
let seq2 f g () = f (); g ()
let seq3 f g h () = f (); g (); h ()
let seq4 f g h k () = f (); g (); h (); k ()

(* Can this instruction's straight-line routine raise (Trap.Exception
   or Mach_exited)?  Memory accesses can; ALU / FP / moves cannot
   (divide by zero and FP exceptional cases are defined results in
   RISC-V, not traps). *)
let may_raise (insn : Insn.t) =
  match insn with
  | Insn.Load _ | Insn.Store _ | Insn.Fld _ | Insn.Fsd _ -> true
  | _ -> false

let no_site () = ()

let[@inline] priv_ix = function Csr.U -> 0 | Csr.S -> 1 | Csr.M -> 2

let create ?(capacity = 16384) (m : Mach.t) : t =
  let caches = Array.init 3 (fun _ -> Hashtbl.create (2 * capacity)) in
  {
    m;
    caches;
    cache = caches.(priv_ix m.Mach.csr.Csr.priv);
    capacity;
    patch = None;
    patch_slot = Patch_none;
    epoch = m.Mach.code_epoch;
    flushes = 0;
    slow_lookups = 0;
    compiled = 0;
    prof_on = false;
    prof_site = (fun _ -> no_site);
  }

(* Entries are keyed by virtual pc, and the same va maps to different
   code under different privileges (M bypasses translation; S and U
   see different leaf permissions).  Rather than flushing on every
   privilege switch -- ruinous for syscall-heavy guests, which would
   recompile their working set on every trap/mret round trip -- each
   privilege owns a cache and a switch just redirects [t.cache].
   Chains never cross tables: every transition that can change
   privilege (trap, interrupt, mret/sret) goes through the slow path
   with the pending patch cleared. *)
let[@inline] retarget (t : t) =
  t.cache <- t.caches.(priv_ix t.m.Mach.csr.Csr.priv);
  t.patch <- None;
  t.patch_slot <- Patch_none

(* Re-arm the engine for a fresh run of the *same* program image
   without dropping compiled code: point [cache] back at the table for
   the machine's (restored) privilege and clear any pending patch from
   the previous run's final dispatch.  Callers that restored guest
   memory are responsible for flushing instead when the previous run
   moved the code epoch -- see {!Engine.warm_run}. *)
let rewind (t : t) = retarget t

let flush (t : t) =
  Array.iter Hashtbl.reset t.caches;
  t.cache <- t.caches.(priv_ix t.m.Mach.csr.Csr.priv);
  t.patch <- None;
  t.patch_slot <- Patch_none;
  t.epoch <- t.m.Mach.code_epoch;
  t.flushes <- t.flushes + 1

(* --- straight-line routines ------------------------------------------

   [compile_straight] compiles an instruction with no control flow and
   no system effect into a [unit -> unit] body routine, or returns
   [None] if the instruction must terminate the superblock.  Body
   routines communicate exceptional outcomes by raising
   (Trap.Exception or Mach_exited); the enclosing block handler owns
   instret/pc/epc bookkeeping. *)

let compile_straight (m : Mach.t) (insn : Insn.t) : (unit -> unit) option =
  let regs = m.Mach.regs in
  let fregs = m.Mach.fregs in
  let mem = m.Mach.plat.Platform.mem in
  (* Inlined-at-compile-time memory geometry for the load/store fast
     paths.  Without flambda, a cross-module call taking or returning
     an int64 boxes it (3 minor words); at one box per executed memory
     access that allocation dominates memory-bound kernels.  The fast
     paths below therefore reduce the virtual address to a host [int]
     DRAM offset immediately -- every later check (bounds, alignment,
     last-page-cache probe) is int arithmetic -- and touch the page's
     backing store with [Bytes.get/set_*] primitives, which the
     compiler reads/writes unboxed.  A fast-path hit allocates
     nothing; misses (paging on, out of DRAM, misaligned, page-cache
     miss) call out exactly as before. *)
  let mbase = mem.Memory.base in
  let msize = Int64.of_int (Memory.size mem) in
  let pbits = mem.Memory.page_bits in
  let pmask = (1 lsl pbits) - 1 in
  let rdx rd = if rd = 0 then Mach.sink else rd in
  match insn with
  (* --- pseudo-instruction specialisations --- *)
  | Op_imm (ADD, 0, 0, _) -> Some (fun () -> ()) (* nop *)
  | Op_imm (ADD, rd, 0, imm) ->
      (* li *)
      let rd = rdx rd in
      Some (fun () -> Array1.unsafe_set regs rd imm)
  | Op_imm (ADD, rd, rs1, 0L) ->
      (* mv *)
      let rd = rdx rd in
      Some (fun () -> Array1.unsafe_set regs rd (Array1.unsafe_get regs rs1))
  | Op_imm (op, rd, rs1, imm) ->
      let rd = rdx rd in
      Some
        (match op with
        | ADD ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.add (Array1.unsafe_get regs rs1) imm)
        | SUB ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.sub (Array1.unsafe_get regs rs1) imm)
        | SLL ->
            let sh = Int64.to_int imm land 0x3F in
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.shift_left (Array1.unsafe_get regs rs1) sh)
        | SLT ->
            fun () ->
              Array1.unsafe_set regs rd
                (if Array1.unsafe_get regs rs1 < imm then 1L else 0L)
        | SLTU ->
            (* unsigned a < b without a function call:
               signed (a < b) xor (sign a) xor (sign b) *)
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              Array1.unsafe_set regs rd
                (if a < imm <> (a < 0L <> (imm < 0L)) then 1L else 0L)
        | XOR ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.logxor (Array1.unsafe_get regs rs1) imm)
        | SRL ->
            let sh = Int64.to_int imm land 0x3F in
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.shift_right_logical (Array1.unsafe_get regs rs1) sh)
        | SRA ->
            let sh = Int64.to_int imm land 0x3F in
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.shift_right (Array1.unsafe_get regs rs1) sh)
        | OR ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.logor (Array1.unsafe_get regs rs1) imm)
        | AND ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.logand (Array1.unsafe_get regs rs1) imm))
  | Op_imm_w (op, rd, rs1, imm) ->
      let rd = rdx rd in
      Some
        (fun () ->
          Array1.unsafe_set regs rd
            (Iss.Alu.eval_alu_w op (Array1.unsafe_get regs rs1) imm))
  | Op (op, rd, rs1, rs2) ->
      let rd = rdx rd in
      Some
        (match op with
        | ADD ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.add
                   (Array1.unsafe_get regs rs1)
                   (Array1.unsafe_get regs rs2))
        | SUB ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.sub
                   (Array1.unsafe_get regs rs1)
                   (Array1.unsafe_get regs rs2))
        | XOR ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.logxor
                   (Array1.unsafe_get regs rs1)
                   (Array1.unsafe_get regs rs2))
        | OR ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.logor
                   (Array1.unsafe_get regs rs1)
                   (Array1.unsafe_get regs rs2))
        | AND ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.logand
                   (Array1.unsafe_get regs rs1)
                   (Array1.unsafe_get regs rs2))
        | SLL ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.shift_left
                   (Array1.unsafe_get regs rs1)
                   (Int64.to_int (Array1.unsafe_get regs rs2) land 0x3F))
        | SRL ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.shift_right_logical
                   (Array1.unsafe_get regs rs1)
                   (Int64.to_int (Array1.unsafe_get regs rs2) land 0x3F))
        | SRA ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.shift_right
                   (Array1.unsafe_get regs rs1)
                   (Int64.to_int (Array1.unsafe_get regs rs2) land 0x3F))
        | SLT ->
            fun () ->
              Array1.unsafe_set regs rd
                (if Array1.unsafe_get regs rs1 < Array1.unsafe_get regs rs2
                 then 1L
                 else 0L)
        | SLTU ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let b = Array1.unsafe_get regs rs2 in
              Array1.unsafe_set regs rd
                (if a < b <> (a < 0L <> (b < 0L)) then 1L else 0L))
  | Op_w (op, rd, rs1, rs2) ->
      let rd = rdx rd in
      Some
        (fun () ->
          Array1.unsafe_set regs rd
            (Iss.Alu.eval_alu_w op
               (Array1.unsafe_get regs rs1)
               (Array1.unsafe_get regs rs2)))
  | Mul (MUL, rd, rs1, rs2) ->
      let rd = rdx rd in
      Some
        (fun () ->
          Array1.unsafe_set regs rd
            (Int64.mul
               (Array1.unsafe_get regs rs1)
               (Array1.unsafe_get regs rs2)))
  | Mul (op, rd, rs1, rs2) ->
      let rd = rdx rd in
      Some
        (fun () ->
          Array1.unsafe_set regs rd
            (Iss.Alu.eval_mul op
               (Array1.unsafe_get regs rs1)
               (Array1.unsafe_get regs rs2)))
  | Mul_w (op, rd, rs1, rs2) ->
      let rd = rdx rd in
      Some
        (fun () ->
          Array1.unsafe_set regs rd
            (Iss.Alu.eval_mul_w op
               (Array1.unsafe_get regs rs1)
               (Array1.unsafe_get regs rs2)))
  | Lui (rd, imm) ->
      let rd = rdx rd in
      Some (fun () -> Array1.unsafe_set regs rd imm)
  | Auipc (rd, imm) ->
      (* note: the block compiler passes the *instruction* pc via imm
         pre-addition: Auipc is rewritten before reaching here *)
      let rd = rdx rd in
      Some (fun () -> Array1.unsafe_set regs rd imm)
  | Load (op, rd, rs1, imm) ->
      let rd = rdx rd in
      let ext = Iss.Alu.extend_load op in
      Some
        (match op with
        | LD ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 7 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = mem.Memory.cache_r_idx then mem.Memory.cache_r_data
                  else Memory.read_page mem idx
                in
                Array1.unsafe_set regs rd
                  (Bytes.get_int64_le data (off land pmask))
              end
              else
                Array1.unsafe_set regs rd
                  (Exec_generic.load m (Int64.add a imm) 8)
        | LW ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 3 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = mem.Memory.cache_r_idx then mem.Memory.cache_r_data
                  else Memory.read_page mem idx
                in
                Array1.unsafe_set regs rd
                  (Int64.of_int32 (Bytes.get_int32_le data (off land pmask)))
              end
              else
                Array1.unsafe_set regs rd
                  (ext (Exec_generic.load m (Int64.add a imm) 4))
        | LWU ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 3 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = mem.Memory.cache_r_idx then mem.Memory.cache_r_data
                  else Memory.read_page mem idx
                in
                Array1.unsafe_set regs rd
                  (Int64.logand
                     (Int64.of_int32 (Bytes.get_int32_le data (off land pmask)))
                     0xFFFF_FFFFL)
              end
              else
                Array1.unsafe_set regs rd
                  (ext (Exec_generic.load m (Int64.add a imm) 4))
        | LH ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 1 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = mem.Memory.cache_r_idx then mem.Memory.cache_r_data
                  else Memory.read_page mem idx
                in
                Array1.unsafe_set regs rd
                  (Int64.of_int (Bytes.get_int16_le data (off land pmask)))
              end
              else
                Array1.unsafe_set regs rd
                  (ext (Exec_generic.load m (Int64.add a imm) 2))
        | LHU ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 1 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = mem.Memory.cache_r_idx then mem.Memory.cache_r_data
                  else Memory.read_page mem idx
                in
                Array1.unsafe_set regs rd
                  (Int64.of_int (Bytes.get_uint16_le data (off land pmask)))
              end
              else
                Array1.unsafe_set regs rd
                  (ext (Exec_generic.load m (Int64.add a imm) 2))
        | LB ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if (not m.Mach.paging) && 0L <= d && d < msize then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = mem.Memory.cache_r_idx then mem.Memory.cache_r_data
                  else Memory.read_page mem idx
                in
                Array1.unsafe_set regs rd
                  (Int64.of_int (Bytes.get_int8 data (off land pmask)))
              end
              else
                Array1.unsafe_set regs rd
                  (ext (Exec_generic.load m (Int64.add a imm) 1))
        | LBU ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if (not m.Mach.paging) && 0L <= d && d < msize then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = mem.Memory.cache_r_idx then mem.Memory.cache_r_data
                  else Memory.read_page mem idx
                in
                Array1.unsafe_set regs rd
                  (Int64.of_int (Bytes.get_uint8 data (off land pmask)))
              end
              else
                Array1.unsafe_set regs rd
                  (ext (Exec_generic.load m (Int64.add a imm) 1)))
  | Store (op, rs2, rs1, imm) ->
      Some
        (match op with
        | SD ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 7 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = mem.Memory.cache_w_idx then mem.Memory.cache_w_data
                  else Memory.write_page mem idx
                in
                Bytes.set_int64_le data (off land pmask)
                  (Array1.unsafe_get regs rs2)
              end
              else begin
                Exec_generic.store m (Int64.add a imm) 8
                  (Array1.unsafe_get regs rs2);
                if not m.Mach.running then raise Mach_exited
              end
        | SW ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 3 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = mem.Memory.cache_w_idx then mem.Memory.cache_w_data
                  else Memory.write_page mem idx
                in
                Bytes.set_int32_le data (off land pmask)
                  (Int64.to_int32 (Array1.unsafe_get regs rs2))
              end
              else begin
                Exec_generic.store m (Int64.add a imm) 4
                  (Array1.unsafe_get regs rs2);
                if not m.Mach.running then raise Mach_exited
              end
        | SH ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 1 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = mem.Memory.cache_w_idx then mem.Memory.cache_w_data
                  else Memory.write_page mem idx
                in
                Bytes.set_uint16_le data (off land pmask)
                  (Int64.to_int (Array1.unsafe_get regs rs2) land 0xFFFF)
              end
              else begin
                Exec_generic.store m (Int64.add a imm) 2
                  (Array1.unsafe_get regs rs2);
                if not m.Mach.running then raise Mach_exited
              end
        | SB ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if (not m.Mach.paging) && 0L <= d && d < msize then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = mem.Memory.cache_w_idx then mem.Memory.cache_w_data
                  else Memory.write_page mem idx
                in
                Bytes.set_uint8 data (off land pmask)
                  (Int64.to_int (Array1.unsafe_get regs rs2) land 0xFF)
              end
              else begin
                Exec_generic.store m (Int64.add a imm) 1
                  (Array1.unsafe_get regs rs2);
                if not m.Mach.running then raise Mach_exited
              end)
  | Fld (frd, rs1, imm) ->
      Some
        (fun () ->
          let a = Array1.unsafe_get regs rs1 in
          let d = Int64.sub (Int64.add a imm) mbase in
          if
            (not m.Mach.paging)
            && 0L <= d && d < msize
            && Int64.to_int d land 7 = 0
          then begin
            let off = Int64.to_int d in
            let idx = off lsr pbits in
            let data =
              if idx = mem.Memory.cache_r_idx then mem.Memory.cache_r_data
              else Memory.read_page mem idx
            in
            Array1.unsafe_set fregs frd (Bytes.get_int64_le data (off land pmask))
          end
          else
            Array1.unsafe_set fregs frd (Exec_generic.load m (Int64.add a imm) 8))
  | Fsd (frs2, rs1, imm) ->
      Some
        (fun () ->
          let a = Array1.unsafe_get regs rs1 in
          let d = Int64.sub (Int64.add a imm) mbase in
          if
            (not m.Mach.paging)
            && 0L <= d && d < msize
            && Int64.to_int d land 7 = 0
          then begin
            let off = Int64.to_int d in
            let idx = off lsr pbits in
            let data =
              if idx = mem.Memory.cache_w_idx then mem.Memory.cache_w_data
              else Memory.write_page mem idx
            in
            Bytes.set_int64_le data (off land pmask)
              (Array1.unsafe_get fregs frs2)
          end
          else begin
            Exec_generic.store m (Int64.add a imm) 8
              (Array1.unsafe_get fregs frs2);
            if not m.Mach.running then raise Mach_exited
          end)
  | Fp_rrr (op, frd, f1, f2) ->
      (* Same semantics as [Iss.Fpu.add]/... but expanded in the
         closure: [Int64.float_of_bits]/[bits_of_float]/[Float.fma]
         are unboxed externals and [r <> r] is the NaN test, so a
         host-FPU op costs no allocation.  Calling [Fpu] would box
         both int64 operands and the result. *)
      Some
        (match op with
        | FADD ->
            fun () ->
              let r =
                Int64.float_of_bits (Array1.unsafe_get fregs f1)
                +. Int64.float_of_bits (Array1.unsafe_get fregs f2)
              in
              Array1.unsafe_set fregs frd
                (if r <> r then 0x7FF8_0000_0000_0000L
                 else Int64.bits_of_float r)
        | FSUB ->
            fun () ->
              let r =
                Int64.float_of_bits (Array1.unsafe_get fregs f1)
                -. Int64.float_of_bits (Array1.unsafe_get fregs f2)
              in
              Array1.unsafe_set fregs frd
                (if r <> r then 0x7FF8_0000_0000_0000L
                 else Int64.bits_of_float r)
        | FMUL ->
            fun () ->
              let r =
                Int64.float_of_bits (Array1.unsafe_get fregs f1)
                *. Int64.float_of_bits (Array1.unsafe_get fregs f2)
              in
              Array1.unsafe_set fregs frd
                (if r <> r then 0x7FF8_0000_0000_0000L
                 else Int64.bits_of_float r)
        | FDIV ->
            fun () ->
              let r =
                Int64.float_of_bits (Array1.unsafe_get fregs f1)
                /. Int64.float_of_bits (Array1.unsafe_get fregs f2)
              in
              Array1.unsafe_set fregs frd
                (if r <> r then 0x7FF8_0000_0000_0000L
                 else Int64.bits_of_float r))
  | Fp_fused (op, frd, f1, f2, f3) ->
      (* fnmsub/fnmadd negate the *product*: realised as fma with the
         multiplicand's sign flipped, as in [Iss.Fpu.fused]. *)
      let nega = match op with
        | FNMSUB | FNMADD -> true
        | FMADD | FMSUB -> false
      in
      let negc = match op with
        | FMSUB | FNMADD -> true
        | FMADD | FNMSUB -> false
      in
      Some
        (fun () ->
          let fa = Int64.float_of_bits (Array1.unsafe_get fregs f1) in
          let fb = Int64.float_of_bits (Array1.unsafe_get fregs f2) in
          let fc = Int64.float_of_bits (Array1.unsafe_get fregs f3) in
          let r =
            Float.fma (if nega then -.fa else fa) fb
              (if negc then -.fc else fc)
          in
          Array1.unsafe_set fregs frd
            (if r <> r then 0x7FF8_0000_0000_0000L else Int64.bits_of_float r))
  | Fp_sign (op, frd, f1, f2) ->
      Some
        (match op with
        | FSGNJ ->
            fun () ->
              Array1.unsafe_set fregs frd
                (Int64.logor
                   (Int64.logand (Array1.unsafe_get fregs f1) Int64.max_int)
                   (Int64.logand (Array1.unsafe_get fregs f2) Int64.min_int))
        | FSGNJN ->
            fun () ->
              Array1.unsafe_set fregs frd
                (Int64.logor
                   (Int64.logand (Array1.unsafe_get fregs f1) Int64.max_int)
                   (Int64.logand
                      (Int64.lognot (Array1.unsafe_get fregs f2))
                      Int64.min_int))
        | FSGNJX ->
            fun () ->
              Array1.unsafe_set fregs frd
                (Int64.logxor (Array1.unsafe_get fregs f1)
                   (Int64.logand (Array1.unsafe_get fregs f2) Int64.min_int)))
  | Fp_minmax (op, frd, f1, f2) ->
      Some
        (fun () ->
          Array1.unsafe_set fregs frd
            (Iss.Fpu.minmax op
               (Array1.unsafe_get fregs f1)
               (Array1.unsafe_get fregs f2)))
  | Fp_cmp (op, rd, f1, f2) ->
      let rd = rdx rd in
      (* quiet NaN handling: comparisons with a NaN operand are false
         (host float compares already are), so no explicit NaN test *)
      Some
        (match op with
        | FEQ ->
            fun () ->
              Array1.unsafe_set regs rd
                (if
                   Int64.float_of_bits (Array1.unsafe_get fregs f1)
                   = Int64.float_of_bits (Array1.unsafe_get fregs f2)
                 then 1L
                 else 0L)
        | FLT ->
            fun () ->
              Array1.unsafe_set regs rd
                (if
                   Int64.float_of_bits (Array1.unsafe_get fregs f1)
                   < Int64.float_of_bits (Array1.unsafe_get fregs f2)
                 then 1L
                 else 0L)
        | FLE ->
            fun () ->
              Array1.unsafe_set regs rd
                (if
                   Int64.float_of_bits (Array1.unsafe_get fregs f1)
                   <= Int64.float_of_bits (Array1.unsafe_get fregs f2)
                 then 1L
                 else 0L))
  | Fsqrt_d (frd, f1) ->
      Some
        (fun () ->
          let r = Float.sqrt (Int64.float_of_bits (Array1.unsafe_get fregs f1)) in
          Array1.unsafe_set fregs frd
            (if r <> r then 0x7FF8_0000_0000_0000L else Int64.bits_of_float r))
  | Fcvt_d_l (frd, rs1) ->
      Some
        (fun () ->
          Array1.unsafe_set fregs frd
            (Int64.bits_of_float (Int64.to_float (Array1.unsafe_get regs rs1))))
  | Fcvt_l_d (rd, f1) ->
      let rd = rdx rd in
      (* RTZ with saturation, as [Iss.Fpu.cvt_l_d] *)
      Some
        (fun () ->
          let f = Int64.float_of_bits (Array1.unsafe_get fregs f1) in
          Array1.unsafe_set regs rd
            (if f <> f then Int64.max_int
             else
               let tr = Float.trunc f in
               if tr >= 9.2233720368547758e18 then Int64.max_int
               else if tr <= -9.2233720368547758e18 then Int64.min_int
               else Int64.of_float tr))
  | Fmv_x_d (rd, f1) ->
      let rd = rdx rd in
      Some
        (fun () -> Array1.unsafe_set regs rd (Array1.unsafe_get fregs f1))
  | Fmv_d_x (frd, rs1) ->
      Some
        (fun () -> Array1.unsafe_set fregs frd (Array1.unsafe_get regs rs1))
  | Branch _ | Jal _ | Jalr _ | Lr _ | Sc _ | Amo _ | Csr _ | Ecall | Ebreak
  | Mret | Sret | Wfi | Fence | Fence_i | Sfence_vma _ | Fcvt_d_lu _
  | Fcvt_d_w _ | Fcvt_lu_d _ | Fcvt_w_d _ | Fclass_d _ | Illegal _ ->
      None

(* --- terminal routines ------------------------------------------------

   The terminal executes the block's final (control-flow or system)
   instruction, accounts for it in instret, and returns the successor
   entry (or None on a chain miss / system event).  A branch, jal or
   jalr terminal also reports its edge to the BBV profiler through the
   site routine resolved here for its pc: branches and jal before the
   instret bump, jalr after it. *)

let build_terminal (t : t) (e : entry) (pc : int64) (insn : Insn.t) : exec_fn =
  let m = t.m in
  let regs = m.Mach.regs in
  let next = Int64.add pc 4L in
  let rdx rd = if rd = 0 then Mach.sink else rd in
  let seq_or_miss () =
    match e.seq with
    | Some _ as n -> n
    | None ->
        m.Mach.pc <- next;
        t.patch <- Some e;
        t.patch_slot <- Patch_seq;
        None
  in
  let tgt_or_miss target =
    match e.tgt with
    | Some _ as n -> n
    | None ->
        m.Mach.pc <- target;
        t.patch <- Some e;
        t.patch_slot <- Patch_tgt;
        None
  in
  let indirect site target =
    if t.prof_on then site ();
    match Hashtbl.find_opt t.cache target with
    | Some _ as n -> n
    | None ->
        m.Mach.pc <- target;
        t.patch <- None;
        t.patch_slot <- Patch_none;
        None
  in
  (* the slow generic routine for rare/system instructions *)
  let generic insn _ =
    let before_priv = m.Mach.csr.Csr.priv in
    (try Exec_generic.exec Exec_generic.host_fp m pc insn
     with Trap.Exception (exc, tval) -> Mach.take_trap m exc tval ~epc:pc);
    m.Mach.instret <- m.Mach.instret + 1;
    (* a privilege change redirects to that privilege's own cache; a
       moved code epoch flushes every cache at the slow-path lookup
       this terminal returns to *)
    if m.Mach.csr.Csr.priv <> before_priv then retarget t;
    t.patch <- None;
    t.patch_slot <- Patch_none;
    None
  in
  match insn with
  | Branch (op, rs1, rs2, off) ->
      (* The condition is inlined per opcode (no [eval_branch] call:
         an int64 crossing a function boundary would be boxed); the
         unsigned compares use signed (a < b) xor sign(a) xor sign(b).
         [finish] takes an immediate bool, so calling it is free. *)
      let target = Int64.add pc off in
      let site = t.prof_site pc in
      let finish taken =
        if t.prof_on then site ();
        m.Mach.instret <- m.Mach.instret + 1;
        if taken then tgt_or_miss target else seq_or_miss ()
      in
      if rs2 = 0 then
        (* beqz / bnez / ... specialisation: single operand read *)
        match op with
        | BEQ -> fun _ -> finish (Array1.unsafe_get regs rs1 = 0L)
        | BNE -> fun _ -> finish (Array1.unsafe_get regs rs1 <> 0L)
        | BLT -> fun _ -> finish (Array1.unsafe_get regs rs1 < 0L)
        | BGE -> fun _ -> finish (Array1.unsafe_get regs rs1 >= 0L)
        | BLTU -> fun _ -> finish false
        | BGEU -> fun _ -> finish true
      else
        (match op with
        | BEQ ->
            fun _ ->
              finish
                (Array1.unsafe_get regs rs1 = Array1.unsafe_get regs rs2)
        | BNE ->
            fun _ ->
              finish
                (Array1.unsafe_get regs rs1 <> Array1.unsafe_get regs rs2)
        | BLT ->
            fun _ ->
              finish
                (Array1.unsafe_get regs rs1 < Array1.unsafe_get regs rs2)
        | BGE ->
            fun _ ->
              finish
                (Array1.unsafe_get regs rs1 >= Array1.unsafe_get regs rs2)
        | BLTU ->
            fun _ ->
              let a = Array1.unsafe_get regs rs1 in
              let b = Array1.unsafe_get regs rs2 in
              finish (a < b <> (a < 0L <> (b < 0L)))
        | BGEU ->
            fun _ ->
              let a = Array1.unsafe_get regs rs1 in
              let b = Array1.unsafe_get regs rs2 in
              finish (not (a < b <> (a < 0L <> (b < 0L)))))
  | Jal (rd, off) ->
      let rd = rdx rd in
      let target = Int64.add pc off in
      let site = t.prof_site pc in
      fun _ ->
        Array1.unsafe_set regs rd next;
        if t.prof_on then site ();
        m.Mach.instret <- m.Mach.instret + 1;
        tgt_or_miss target
  | Jalr (0, rs1, 0L) ->
      (* ret-style: no link write *)
      let site = t.prof_site pc in
      fun _ ->
        let target =
          Int64.logand (Array1.unsafe_get regs rs1) (Int64.lognot 1L)
        in
        m.Mach.instret <- m.Mach.instret + 1;
        indirect site target
  | Jalr (rd, rs1, imm) ->
      let rd = rdx rd in
      let site = t.prof_site pc in
      fun _ ->
        let target =
          Int64.logand
            (Int64.add (Array1.unsafe_get regs rs1) imm)
            (Int64.lognot 1L)
        in
        Array1.unsafe_set regs rd next;
        m.Mach.instret <- m.Mach.instret + 1;
        indirect site target
  | _ -> generic insn

(* Terminal for a block cut without a control-flow instruction (length
   limit, page boundary, lookahead fetch fault): fall through to the
   next pc, retiring nothing. *)
let build_fallthrough (t : t) (e : entry) (next_pc : int64) : exec_fn =
  let m = t.m in
  fun _ ->
    match e.seq with
    | Some _ as n -> n
    | None ->
        m.Mach.pc <- next_pc;
        t.patch <- Some e;
        t.patch_slot <- Patch_seq;
        None

(* --- block assembly --------------------------------------------------- *)

(* Wrap body + terminal into the block's execution routine.  Blocks
   of up to eight slots get a straight-line routine with the slot
   closures bound to variables -- no counter, no array indexing, no
   loop branch; longer blocks fall back to a counted loop.  Both keep
   the shared [cur] ref pointing at the executing slot so that a raise
   (only possible from a slot's final instruction) recovers the exact
   retire count and epc from [slot_ret]/[slot_offs]. *)
let build_exec (t : t) (e : entry) ~(guest_n : int) (term : exec_fn) : exec_fn =
  let m = t.m in
  let body = e.body in
  let slot_ret = e.slot_ret in
  let slot_offs = e.slot_offs in
  let n = Array.length body in
  if n = 0 then term
  else begin
    let cur = ref 0 in
    let finish () =
      m.Mach.instret <- m.Mach.instret + guest_n;
      term e
    in
    let fail_trap exc tval =
      m.Mach.instret <- m.Mach.instret + slot_ret.(!cur);
      Mach.take_trap m exc tval
        ~epc:(Int64.add e.e_pc (Int64.of_int slot_offs.(!cur)));
      retarget t;
      None
    in
    let fail_exit () =
      m.Mach.instret <- m.Mach.instret + slot_ret.(!cur);
      m.Mach.pc <- Int64.add e.e_pc (Int64.of_int (slot_offs.(!cur) + 4));
      None
    in
    match body with
    | [| s0 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | [| s0; s1 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ();
            cur := 1;
            s1 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | [| s0; s1; s2 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ();
            cur := 1;
            s1 ();
            cur := 2;
            s2 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | [| s0; s1; s2; s3 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ();
            cur := 1;
            s1 ();
            cur := 2;
            s2 ();
            cur := 3;
            s3 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | [| s0; s1; s2; s3; s4 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ();
            cur := 1;
            s1 ();
            cur := 2;
            s2 ();
            cur := 3;
            s3 ();
            cur := 4;
            s4 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | [| s0; s1; s2; s3; s4; s5 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ();
            cur := 1;
            s1 ();
            cur := 2;
            s2 ();
            cur := 3;
            s3 ();
            cur := 4;
            s4 ();
            cur := 5;
            s5 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | [| s0; s1; s2; s3; s4; s5; s6 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ();
            cur := 1;
            s1 ();
            cur := 2;
            s2 ();
            cur := 3;
            s3 ();
            cur := 4;
            s4 ();
            cur := 5;
            s5 ();
            cur := 6;
            s6 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | [| s0; s1; s2; s3; s4; s5; s6; s7 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ();
            cur := 1;
            s1 ();
            cur := 2;
            s2 ();
            cur := 3;
            s3 ();
            cur := 4;
            s4 ();
            cur := 5;
            s5 ();
            cur := 6;
            s6 ();
            cur := 7;
            s7 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | _ ->
        fun _ -> (
          match
            cur := 0;
            while !cur < n do
              (Array.unsafe_get body !cur) ();
              incr cur
            done
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
  end

(* (Re)compile the superblock starting at [e.e_pc] into [e], given its
   first decoded instruction.  Lookahead decoding stops at the block
   length limit, at a page boundary when translation is on (the next
   page may map differently by the time it executes), or at a fetch
   fault (the split block falls through and the fault is taken, if
   still reachable, on the next slow-path lookup). *)
let build (t : t) (e : entry) (first : Insn.t) =
  t.compiled <- t.compiled + 1;
  let m = t.m in
  let regs = m.Mach.regs in
  let paged = m.Mach.paging in
  let epage = Int64.shift_right_logical e.e_pc 12 in
  (* (closure, may_raise, byte offset) per instruction, reversed *)
  let acc = ref [] in
  let n = ref 0 in
  let push ?(traps = false) op pc =
    acc := (op, traps, Int64.to_int (Int64.sub pc e.e_pc)) :: !acc;
    incr n
  in
  let rewrite pc = function
    (* inline the pc into pc-relative straight-line instructions *)
    | Insn.Auipc (rd, imm) -> Insn.Auipc (rd, Int64.add pc imm)
    | insn -> insn
  in
  let rec cont next =
    if !n >= max_block then split next
    else if paged && Int64.shift_right_logical next 12 <> epage then split next
    else begin
      match Exec_generic.fetch_decode ~at:next m with
      | insn -> grow next insn
      | exception Trap.Exception _ -> split next
    end
  and grow pc insn =
    match insn with
    | Insn.Jal (rd, off)
      when (not t.prof_on)
           && ((not paged)
              || Int64.shift_right_logical (Int64.add pc off) 12 = epage) ->
        (* Unconditional jumps are folded into the trace (the paper's
           trace locality): the jump retires as a body instruction --
           a link write, or nothing at all for plain [j] -- and
           decoding continues at its target, so short then/else arms
           and loop latches do not cut the superblock.  Disabled while
           BBV profiling is attached (it must observe every
           control-flow edge) and across page boundaries when paging
           is on.  Self-loops terminate via the block length limit. *)
        (if rd = 0 then push (fun () -> ()) pc
         else
           let link = Int64.add pc 4L in
           push (fun () -> Array1.unsafe_set regs rd link) pc);
        cont (Int64.add pc off)
    | _ -> (
        match compile_straight t.m (rewrite pc insn) with
        | None ->
            (* control-flow or system instruction: real terminal *)
            e.e_len <- !n + 1;
            `Term (pc, insn)
        | Some op ->
            push ~traps:(may_raise insn) op pc;
            cont (Int64.add pc 4L))
  and split next =
    e.e_len <- !n;
    `Split next
  in
  let outcome = grow e.e_pc first in
  let insns = List.rev !acc in
  let final = match outcome with `Term (pc, _) -> pc | `Split next -> next in
  e.steps <- Array.of_list (List.map (fun (f, _, _) -> f) insns);
  e.offs <-
    Array.of_list
      (List.map (fun (_, _, o) -> o) insns
      @ [ Int64.to_int (Int64.sub final e.e_pc) ]);
  (* Coalesce into slots of up to four instructions.  Only the final
     element of a slot may be a raising (memory) closure, so when a
     slot raises the retire count and epc are exact.  Slot tuples are
     (closure, retired-through-slot, final-instruction offset). *)
  let rec slots pre = function
    | [] -> []
    | (f1, false, _) :: (f2, false, _) :: (f3, false, _) :: (f4, false, o4)
      :: rest ->
        (seq4 f1 f2 f3 f4, pre + 4, o4) :: slots (pre + 4) rest
    | (f1, false, _) :: (f2, false, _) :: (f3, false, o3) :: rest ->
        (seq3 f1 f2 f3, pre + 3, o3) :: slots (pre + 3) rest
    | (f1, false, _) :: (f2, false, o2) :: rest ->
        (seq2 f1 f2, pre + 2, o2) :: slots (pre + 2) rest
    | (f, _, o) :: rest -> (f, pre + 1, o) :: slots (pre + 1) rest
  in
  let sl = slots 0 insns in
  e.body <- Array.of_list (List.map (fun (f, _, _) -> f) sl);
  e.slot_ret <- Array.of_list (List.map (fun (_, r, _) -> r) sl);
  e.slot_offs <- Array.of_list (List.map (fun (_, _, o) -> o) sl);
  let term =
    match outcome with
    | `Term (pc, insn) -> build_terminal t e pc insn
    | `Split next -> build_fallthrough t e next
  in
  e.exec <- build_exec t e ~guest_n:!n term

let compile (t : t) (pc : int64) (first : Insn.t) : entry =
  let e =
    { e_pc = pc; e_len = 1; body = [||]; steps = [||]; offs = [||];
      slot_ret = [||]; slot_offs = [||]; exec = (fun _ -> None); seq = None;
      tgt = None }
  in
  build t e first;
  e

(* --- slow path --------------------------------------------------------- *)

(* Resolve the entry for m.pc, compiling if needed, and patch the
   chain slot of the entry that missed. *)
let rec lookup_or_compile (t : t) : entry option =
  if not t.m.Mach.running then None
  else begin
    t.slow_lookups <- t.slow_lookups + 1;
    if t.epoch <> t.m.Mach.code_epoch || Hashtbl.length t.cache >= t.capacity
    then flush t;
    let pc = t.m.Mach.pc in
    match Hashtbl.find_opt t.cache pc with
    | Some entry ->
        patch_chain t entry;
        Some entry
    | None -> (
        match Exec_generic.fetch_decode t.m with
        | insn ->
            let entry = compile t pc insn in
            Hashtbl.replace t.cache pc entry;
            patch_chain t entry;
            Some entry
        | exception Trap.Exception (exc, tval) ->
            (* fetch fault: it retires, as in [Exec_generic.step]; take
               the trap and resolve the handler address in the handler
               privilege's cache instead *)
            Mach.take_trap t.m exc tval ~epc:pc;
            t.m.Mach.instret <- t.m.Mach.instret + 1;
            retarget t;
            lookup_or_compile t)
  end

and patch_chain (t : t) (entry : entry) =
  (match (t.patch, t.patch_slot) with
  | Some p, Patch_seq -> p.seq <- Some entry
  | Some p, Patch_tgt -> p.tgt <- Some entry
  | Some _, Patch_none | None, _ -> ());
  t.patch <- None;
  t.patch_slot <- Patch_none

(* --- run loop ---------------------------------------------------------- *)

exception Budget_exhausted

(* Execute the first [budget] (< e.e_len) instructions of [e]: the
   exact-stop path used when the remaining budget is smaller than a
   block (checkpointing relies on run ~max_insns retiring exactly
   max_insns).  Steps through the unfused per-instruction view --
   coalesced slots cannot stop at an exact instruction count. *)
let run_partial (t : t) (e : entry) (budget : int) =
  let m = t.m in
  let body = e.steps in
  let offs = e.offs in
  let k = min budget (Array.length body) in
  let i = ref 0 in
  try
    while !i < k do
      (Array.unsafe_get body !i) ();
      incr i
    done;
    m.Mach.instret <- m.Mach.instret + k;
    m.Mach.pc <- Int64.add e.e_pc (Int64.of_int offs.(k))
  with
  | Trap.Exception (exc, tval) ->
      m.Mach.instret <- m.Mach.instret + !i + 1;
      Mach.take_trap m exc tval ~epc:(Int64.add e.e_pc (Int64.of_int offs.(!i)));
      retarget t
  | Mach_exited ->
      m.Mach.instret <- m.Mach.instret + !i + 1;
      m.Mach.pc <- Int64.add e.e_pc (Int64.of_int (offs.(!i) + 4))

(* Run at most [max_insns] instructions (or to exit). *)
let run (t : t) ~max_insns : int =
  let m = t.m in
  let start = m.Mach.instret in
  let stop_at = start + max_insns in
  (* entry pending when the budget ran out on a block boundary; its pc
     must be restored below *)
  let hold = ref None in
  (* chain-following loop: one budget compare and one indirect call
     per superblock, no intermediate ref/option traffic.  Terminals
     that can exit or change privilege always return [None], so the
     running/interrupt checks only need to run on the slow path. *)
  let rec chain (e : entry) =
    let budget = stop_at - m.Mach.instret in
    if budget <= 0 then begin
      hold := Some e;
      raise Budget_exhausted
    end
    else if e.e_len <= budget then (
      match e.exec e with Some e' -> chain e' | None -> ())
    else run_partial t e budget
  in
  (try
     while m.Mach.running do
       Mach.check_running m;
       (match Riscv.Trap.pending_interrupt m.Mach.csr with
       | Some irq ->
           Mach.take_irq m irq;
           retarget t
       | None -> ());
       if m.Mach.instret >= stop_at then raise Budget_exhausted;
       match lookup_or_compile t with
       | Some e -> chain e
       | None -> raise Budget_exhausted (* machine exited *)
     done
   with Budget_exhausted -> ());
  (* make m.pc coherent if we stopped on a fast-path boundary *)
  (match !hold with Some e -> m.Mach.pc <- e.e_pc | None -> ());
  m.Mach.instret - start

let name = "nemu"
