(* Baseline engine modelled on Spike: a direct-mapped software decode
   cache indexed by PC (so different addresses can conflict and force
   re-decode, unlike NEMU's trace-organised cache), generic dispatch on
   the decoded AST, and SoftFloat arithmetic for floating point --
   which is why this engine, like Spike, is slower on FP-heavy
   workloads (§III-D2).  The cache is emptied when the machine's code
   epoch moves (fence.i, sfence.vma, satp writes). *)

let name = "spike-like"

type t = {
  tags : int64 array; (* -1L = invalid *)
  insns : Riscv.Insn.t array;
  size : int; (* power of two *)
  mutable epoch : int; (* the code epoch the cache was filled in *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(size = 16384) () =
  assert (size land (size - 1) = 0);
  {
    tags = Array.make size (-1L);
    insns = Array.make size (Riscv.Insn.Illegal 0l);
    size;
    epoch = 0;
    hits = 0;
    misses = 0;
  }

let step (c : t) (m : Mach.t) : unit =
  let pc = m.Mach.pc in
  if c.epoch <> m.Mach.code_epoch then begin
    Array.fill c.tags 0 c.size (-1L);
    c.epoch <- m.Mach.code_epoch
  end;
  (try
     let idx = Int64.to_int (Int64.shift_right_logical pc 2) land (c.size - 1) in
     let insn =
       if c.tags.(idx) = pc then begin
         c.hits <- c.hits + 1;
         c.insns.(idx)
       end
       else begin
         c.misses <- c.misses + 1;
         let insn = Exec_generic.fetch_decode m in
         c.tags.(idx) <- pc;
         c.insns.(idx) <- insn;
         insn
       end
     in
     Exec_generic.exec Exec_generic.soft_fp m pc insn
   with Riscv.Trap.Exception (exc, tval) -> Mach.take_trap m exc tval ~epc:pc);
  m.Mach.instret <- m.Mach.instret + 1

let run ?(size = 16384) (m : Mach.t) ~max_insns : int =
  let c = create ~size () in
  let start = m.Mach.instret in
  while m.Mach.running && m.Mach.instret - start < max_insns do
    step c m;
    if m.Mach.instret land 0xFFF = 0 then Mach.check_running m
  done;
  Mach.check_running m;
  m.Mach.instret - start
