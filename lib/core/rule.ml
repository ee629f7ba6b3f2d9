(* Diff-rules: the DRAV abstraction (§III-A).

   A diff-rule reconciles a legal micro-architecture-dependent
   divergence between the DUT and the REF.  Rules come in two shapes:

   - [pre] rules inspect a DUT commit *before* the REF steps and may
     force an event onto the REF (exception, interrupt, SC failure) --
     these correspond to "the DUT is trusted to trigger the event and
     the REF is notified to refine its behaviour";
   - [post] rules run after the REF has stepped and may patch the REF
     (non-deterministic CSR reads, Global-Memory load values) or
     reject the commit as a real mismatch.

   Rules are data: the standard RISC-V set lives in [Rules.standard],
   and verification code can add its own on the fly, which is what
   makes one REF serve many DUTs (the N-to-1 correspondence). *)

type ctx = {
  refs : Ref_model.t array; (* one single-core REF per hart *)
  global_mem : Global_memory.t;
  soc : Xiangshan.Soc.t;
  mutable failure : failure option;
  (* guard state: repeated forced events at one pc indicate a real bug
     (paper: "tracked and asserted not to repeatedly occur") *)
  forced_history : (int * int64, int) Hashtbl.t;
}

and failure = {
  f_cycle : int;
  f_hart : int;
  f_pc : int64;
  f_rule : string;
  f_msg : string;
  f_commits : int; (* commits checked when the failure fired; -1 unknown *)
  f_probe : string; (* snapshot of the offending commit probe, or "" *)
}

type verdict = Pass | Patched | Fail of string

(* One-line snapshot of a commit probe for failure reports: pc,
   instruction, and the memory access values the DUT saw. *)
let describe_probe (p : Xiangshan.Probe.commit) : string =
  let acc tag present value =
    if present then
      Printf.sprintf " %s@0x%Lx=0x%Lx" tag p.Xiangshan.Probe.p_mem_paddr value
    else ""
  in
  Printf.sprintf "pc=0x%Lx insn=%s next=0x%Lx%s%s"
    p.Xiangshan.Probe.p_pc
    (Riscv.Insn.show p.Xiangshan.Probe.p_insn)
    p.Xiangshan.Probe.p_next_pc
    (acc "load" p.Xiangshan.Probe.p_has_load p.Xiangshan.Probe.p_load_value)
    (acc "store" p.Xiangshan.Probe.p_has_store
       p.Xiangshan.Probe.p_store_value)

let string_of_failure (f : failure) : string =
  Printf.sprintf "cycle %d hart %d pc=0x%Lx [%s] %s%s" f.f_cycle f.f_hart
    f.f_pc f.f_rule f.f_msg
    (if f.f_probe = "" then "" else "; probe: " ^ f.f_probe)

type t = {
  name : string;
  descr : string;
  mutable fires : int;
  pre : (ctx -> hart:int -> Xiangshan.Probe.commit -> bool) option;
      (* returns true when the rule fired (forced an event) *)
  post :
    (ctx ->
    hart:int ->
    Xiangshan.Probe.commit ->
    Ref_model.commit ->
    verdict)
    option;
}

let fail ctx ~hart ~(probe : Xiangshan.Probe.commit) ~rule msg =
  if ctx.failure = None then
    ctx.failure <-
      Some
        {
          f_cycle = probe.Xiangshan.Probe.p_cycle;
          f_hart = hart;
          f_pc = probe.Xiangshan.Probe.p_pc;
          f_rule = rule;
          f_msg = msg;
          f_commits = -1;
          f_probe = describe_probe probe;
        }

let make ?pre ?post ~name ~descr () = { name; descr; fires = 0; pre; post }

(* Guard against livelock from repeatedly forced events at one pc. *)
let max_consecutive_forces = 200

let bump_force_guard ctx ~hart ~(probe : Xiangshan.Probe.commit) ~rule =
  let key = (hart, probe.Xiangshan.Probe.p_pc) in
  let n = Option.value (Hashtbl.find_opt ctx.forced_history key) ~default:0 in
  Hashtbl.replace ctx.forced_history key (n + 1);
  if n + 1 > max_consecutive_forces then
    fail ctx ~hart ~probe ~rule
      (Printf.sprintf "event forced %d times at the same pc (livelock?)"
         (n + 1))

(* Runs on every commit that does not trap; with nothing forced there
   is nothing to clear, so skip building and hashing the key. *)
let clear_force_guard ctx ~hart ~(probe : Xiangshan.Probe.commit) =
  if Hashtbl.length ctx.forced_history > 0 then
    Hashtbl.remove ctx.forced_history (hart, probe.Xiangshan.Probe.p_pc)
