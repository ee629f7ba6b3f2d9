(* The REF behind a first-class interface (paper §III-B: "one simple
   REF verifies many DUTs" -- and the REF itself is swappable).

   DiffTest, the diff-rules, the workflow and the campaign all talk
   to the reference model through this record of operations: the
   step-to-commit loop, the DRAV control plane (forced events, state
   patches, counter/time sync), the architectural-state diff, and
   the COW-memory enumeration LightSSS snapshots.  Two backends are
   provided: the straightforward [Iss.Interp] interpreter and the
   NEMU block-compiled engine in its non-autonomous REF mode
   ([Nemu.Ref_core]) -- the paper's choice, fast enough to keep
   co-simulation off the critical path.

   The record fields are closures over the backend value, which is
   exactly what LightSSS needs: Marshal with [Closures] captures the
   whole record (environment included), so a snapshot of a DiffTest
   instance carries its REFs whichever backend is active. *)

type kind = Iss | Nemu

(* The commit vocabulary is shared with the ISS REF: every backend
   reports retirement in the same records. *)
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
  (* DRAV control plane *)
  force_exception : Riscv.Trap.exc -> int64 -> unit;
  force_interrupt : Riscv.Trap.irq -> unit;
  force_sc_failure : unit -> unit;
  patch_reg : int -> int64 -> unit;
  patch_freg : int -> int64 -> unit;
  patch_mem : paddr:int64 -> size:int -> value:int64 -> unit;
  get_reg : int -> int64;
  set_counters : cycle:int64 -> instret:int64 -> unit;
  set_mcycle : int64 -> unit;
  set_time : int64 -> unit;
  set_mip_bit : int -> bool -> unit;
  (* observation *)
  diff_against : Riscv.Arch_state.t -> string option;
  memories : unit -> Riscv.Memory.t list;
  detach_derived : unit -> unit -> unit; (* LightSSS: unhook, re-hook *)
  exited : unit -> bool;
  exit_code : unit -> int option;
}

let kind_name = function Iss -> "iss" | Nemu -> "nemu"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "iss" -> Some Iss
  | "nemu" -> Some Nemu
  | _ -> None

let of_iss (r : Iss.Interp.t) : t =
  {
    kind = Iss;
    hartid = r.Iss.Interp.st.Riscv.Arch_state.hartid;
    step = (fun () -> Iss.Interp.step r);
    force_exception = Iss.Interp.force_exception r;
    force_interrupt = Iss.Interp.force_interrupt r;
    force_sc_failure = (fun () -> Iss.Interp.force_sc_failure r);
    patch_reg = Iss.Interp.patch_reg r;
    patch_freg = Riscv.Arch_state.set_freg r.Iss.Interp.st;
    patch_mem = (fun ~paddr ~size ~value -> Iss.Interp.patch_mem r ~paddr ~size ~value);
    get_reg = Riscv.Arch_state.get_reg r.Iss.Interp.st;
    set_counters =
      (fun ~cycle ~instret -> Iss.Interp.set_counters r ~cycle ~instret);
    set_mcycle =
      (fun v -> r.Iss.Interp.st.Riscv.Arch_state.csr.Riscv.Csr.reg_mcycle <- v);
    set_time = Iss.Interp.set_time r;
    set_mip_bit = Iss.Interp.set_mip_bit r;
    diff_against = (fun dut -> Riscv.Arch_state.diff dut r.Iss.Interp.st);
    memories = (fun () -> [ r.Iss.Interp.plat.Riscv.Platform.mem ]);
    detach_derived = (fun () () -> ());
    exited = (fun () -> Iss.Interp.exited r);
    exit_code = (fun () -> Iss.Interp.exit_code r);
  }

let of_nemu (r : Nemu.Ref_core.t) : t =
  {
    kind = Nemu;
    hartid = Int64.to_int r.Nemu.Ref_core.m.Nemu.Mach.csr.Riscv.Csr.hartid;
    step = (fun () -> Nemu.Ref_core.step r);
    force_exception = Nemu.Ref_core.force_exception r;
    force_interrupt = Nemu.Ref_core.force_interrupt r;
    force_sc_failure = (fun () -> Nemu.Ref_core.force_sc_failure r);
    patch_reg = Nemu.Ref_core.patch_reg r;
    patch_freg = Nemu.Ref_core.patch_freg r;
    patch_mem =
      (fun ~paddr ~size ~value -> Nemu.Ref_core.patch_mem r ~paddr ~size ~value);
    get_reg = Nemu.Ref_core.get_reg r;
    set_counters =
      (fun ~cycle ~instret -> Nemu.Ref_core.set_counters r ~cycle ~instret);
    set_mcycle = Nemu.Ref_core.set_mcycle r;
    set_time = Nemu.Ref_core.set_time r;
    set_mip_bit = Nemu.Ref_core.set_mip_bit r;
    diff_against = Nemu.Ref_core.diff_against r;
    memories = (fun () -> Nemu.Ref_core.memories r);
    detach_derived = (fun () -> Nemu.Ref_core.detach_blocks r);
    exited = (fun () -> Nemu.Ref_core.exited r);
    exit_code = (fun () -> Nemu.Ref_core.exit_code r);
  }

(* Build a fresh non-autonomous REF of [kind] with [prog] loaded. *)
let create ?(kind = Iss) ~hartid ~(prog : Riscv.Asm.program) () : t =
  match kind with
  | Iss ->
      let r = Iss.Interp.create ~autonomous:false ~hartid () in
      Iss.Interp.load_program r prog;
      of_iss r
  | Nemu ->
      let r = Nemu.Ref_core.create ~hartid () in
      Nemu.Ref_core.load_program r prog;
      of_nemu r
