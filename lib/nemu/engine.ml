(* Common driver interface over the four interpreter engines compared
   in Figure 8. *)

type kind = Nemu | Spike_like | Qemu_tci_like | Dromajo_like

let all = [ Nemu; Spike_like; Qemu_tci_like; Dromajo_like ]

let name = function
  | Nemu -> "NEMU"
  | Spike_like -> "Spike-like"
  | Qemu_tci_like -> "QEMU-TCI-like"
  | Dromajo_like -> "Dromajo-like"

type stats = {
  insns : int;
  seconds : float;
  (* NEMU uop-cache counters; zero for the other engines *)
  flushes : int;
  slow_lookups : int;
  compiled : int;
}

(* Run [prog] on a fresh machine; returns run statistics. *)
let run_program_stats ?(max_insns = 2_000_000_000)
    ?(dram_size = 64 * 1024 * 1024) (kind : kind)
    (prog : Riscv.Asm.program) : stats =
  let m = Mach.create ~dram_size () in
  Mach.load_program m prog;
  let t0 = Unix.gettimeofday () in
  let n, counters =
    match kind with
    | Nemu ->
        let t = Fast.create m in
        let n = Fast.run t ~max_insns in
        (n, Some t)
    | Spike_like -> (Spike_like.run m ~max_insns, None)
    | Qemu_tci_like -> (Qemu_tci_like.run m ~max_insns, None)
    | Dromajo_like -> (Dromajo_like.run m ~max_insns, None)
  in
  let t1 = Unix.gettimeofday () in
  match counters with
  | Some t ->
      {
        insns = n;
        seconds = t1 -. t0;
        flushes = t.Fast.flushes;
        slow_lookups = t.Fast.slow_lookups;
        compiled = t.Fast.compiled;
      }
  | None ->
      {
        insns = n;
        seconds = t1 -. t0;
        flushes = 0;
        slow_lookups = 0;
        compiled = 0;
      }

let run_program ?max_insns ?dram_size kind prog =
  let s = run_program_stats ?max_insns ?dram_size kind prog in
  (s.insns, s.seconds)

let mips n secs = if secs <= 0.0 then 0.0 else float_of_int n /. secs /. 1e6

(* --- warm (resident) NEMU engine -------------------------------------- *)

(* A machine + Fast engine kept alive across runs of one program so
   the decoded superblock caches amortise.  Between runs the
   *architectural* state is rolled back to the post-load reset point:
   guest memory via a COW snapshot, the CSR file via a pristine copy,
   registers/pc/devices by hand.  Compiled code is kept only when the
   previous run left the code epoch where it was (no fence.i,
   sfence.vma or satp write): a moved epoch means code bytes or
   mappings may have diverged from what the blocks were compiled
   against, so the whole cache is dropped. *)
type warm = {
  w_mach : Mach.t;
  w_fast : Fast.t;
  w_entry : int64;
  w_mem0 : Riscv.Memory.snapshot;  (** memory right after [load_program] *)
  w_csr0 : Riscv.Csr.t;  (** pristine CSR file (a [Csr.copy]) *)
  mutable w_epoch : int;
      (** the code epoch at the last point the caches were known to
          match the pristine image *)
  mutable w_runs : int;
}

let warm_create ?(dram_size = 64 * 1024 * 1024) (prog : Riscv.Asm.program) :
    warm =
  let m = Mach.create ~dram_size () in
  Mach.load_program m prog;
  let mem0 = Riscv.Memory.snapshot m.Mach.plat.Riscv.Platform.mem in
  let csr0 = Riscv.Csr.copy m.Mach.csr in
  let t = Fast.create m in
  {
    w_mach = m;
    w_fast = t;
    w_entry = prog.Riscv.Asm.entry;
    w_mem0 = mem0;
    w_csr0 = csr0;
    w_epoch = m.Mach.code_epoch;
    w_runs = 0;
  }

let warm_reset (w : warm) =
  let m = w.w_mach in
  let plat = m.Mach.plat in
  Riscv.Memory.restore plat.Riscv.Platform.mem w.w_mem0;
  Riscv.Csr.restore m.Mach.csr w.w_csr0;
  Bigarray.Array1.fill m.Mach.regs 0L;
  Bigarray.Array1.fill m.Mach.fregs 0L;
  m.Mach.pc <- w.w_entry;
  m.Mach.reservation <- None;
  m.Mach.instret <- 0;
  m.Mach.running <- true;
  plat.Riscv.Platform.exit_code <- None;
  Buffer.clear plat.Riscv.Platform.console;
  let clint = plat.Riscv.Platform.clint in
  Riscv.Platform.Clint.set_mtime clint 0L;
  let cmp = clint.Riscv.Platform.Clint.mtimecmp in
  Array.fill cmp 0 (Array.length cmp) Int64.max_int;
  let msip = clint.Riscv.Platform.Clint.msip in
  Array.fill msip 0 (Array.length msip) false;
  (* recompute cached paging state and drop soft-TLB entries that
     translated against the pre-restore address space *)
  Mach.sync_translation m;
  let t = w.w_fast in
  if m.Mach.code_epoch <> w.w_epoch then begin
    Fast.flush t;
    w.w_epoch <- m.Mach.code_epoch
  end
  else Fast.rewind t

let warm_run (w : warm) ~max_insns =
  if w.w_runs > 0 then warm_reset w;
  w.w_runs <- w.w_runs + 1;
  Fast.run w.w_fast ~max_insns

let warm_mach (w : warm) = w.w_mach

let warm_runs (w : warm) = w.w_runs

let warm_compiled (w : warm) = w.w_fast.Fast.compiled
