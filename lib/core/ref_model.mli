(** The reference model behind a first-class interface (paper §III-B).

    Everything DiffTest needs from a REF -- step-to-commit, the DRAV
    control plane, the architectural-state diff, and the COW-memory
    enumeration LightSSS snapshots -- as a record of operations
    closed over the backend.  Two implementations ship: the plain
    {!Iss.Interp} interpreter ({!Iss}) and the NEMU block-compiled
    engine in non-autonomous REF mode ({!Nemu}, see
    {!Nemu.Ref_core}), the paper's fast REF.  Select per DiffTest
    instance with [?ref_kind]. *)

type kind = Iss | Nemu

(** The shared commit vocabulary (identical to the ISS records, so
    rules written against either name interoperate). *)
type mem_access = Iss.Interp.mem_access = {
  vaddr : int64;
  paddr : int64;
  size : int;
  value : int64;
}

type trap_info = Iss.Interp.trap_info = { exc : Riscv.Trap.exc; tval : int64 }

type commit = Iss.Interp.commit = {
  pc : int64;
  insn : Riscv.Insn.t;
  next_pc : int64;
  trap : trap_info option;
  interrupt : Riscv.Trap.irq option;
  load : mem_access option;
  store : mem_access option;
  sc_failed : bool;
  csr_read : (int * int64) option;
  mmio : bool;
}

type step_result = Iss.Interp.step_result = Committed of commit | Exited

type t = {
  kind : kind;
  hartid : int;
  step : unit -> step_result;
      (** retire one instruction (or forced event) *)
  force_exception : Riscv.Trap.exc -> int64 -> unit;
  force_interrupt : Riscv.Trap.irq -> unit;
  force_sc_failure : unit -> unit;
  patch_reg : int -> int64 -> unit;
  patch_freg : int -> int64 -> unit;
  patch_mem : paddr:int64 -> size:int -> value:int64 -> unit;
      (** physical-memory patch; NEMU invalidates affected uop blocks *)
  get_reg : int -> int64;
  set_counters : cycle:int64 -> instret:int64 -> unit;
  set_mcycle : int64 -> unit;
  set_time : int64 -> unit;
  set_mip_bit : int -> bool -> unit;
  diff_against : Riscv.Arch_state.t -> string option;
      (** first difference against the DUT's architectural state, in
          the {!Riscv.Arch_state.diff} message format *)
  memories : unit -> Riscv.Memory.t list;
      (** the COW memories this REF owns (LightSSS snapshots these) *)
  detach_derived : unit -> unit -> unit;
      (** unhook state derived from memory (NEMU's block cache) so a
          LightSSS image leaves it out; returns the re-hook.  A copy
          restored from that image rebuilds it lazily. *)
  exited : unit -> bool;
  exit_code : unit -> int option;
}

val kind_name : kind -> string

val kind_of_string : string -> kind option

val of_iss : Iss.Interp.t -> t

val of_nemu : Nemu.Ref_core.t -> t

val create : ?kind:kind -> hartid:int -> prog:Riscv.Asm.program -> unit -> t
(** Fresh non-autonomous REF with [prog] loaded. *)
