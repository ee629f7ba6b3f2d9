(* Register renaming: separate integer and floating-point physical
   register files with free lists, plus reference-counting move
   elimination for the integer file (Table II: NH feature).

   The physical register files also hold the speculative values and
   their ready cycles -- the "execute at issue" model computes results
   straight into the physical file. *)

type rf = {
  map : int array; (* arch -> phys *)
  (* the free list, FIFO: a ring of [pregs] slots holding [free_n]
     registers from [free_head] (one array, not a queue cell per free
     register, in the heap and in a LightSSS image) *)
  free : int array;
  mutable free_head : int;
  mutable free_n : int;
  value : int64 array;
  ready_at : int array; (* cycle the value becomes available *)
  refcnt : int array;
}

let push_free rf p =
  rf.free.((rf.free_head + rf.free_n) mod Array.length rf.free) <- p;
  rf.free_n <- rf.free_n + 1

let pop_free rf =
  let p = rf.free.(rf.free_head) in
  rf.free_head <- (rf.free_head + 1) mod Array.length rf.free;
  rf.free_n <- rf.free_n - 1;
  p

let make_rf ~arch_regs ~pregs =
  let rf =
    {
      map = Array.init arch_regs (fun i -> i);
      free = Array.make pregs 0;
      free_head = 0;
      free_n = 0;
      value = Array.make pregs 0L;
      ready_at = Array.make pregs 0;
      refcnt = Array.make pregs 0;
    }
  in
  for i = 0 to arch_regs - 1 do
    rf.refcnt.(i) <- 1
  done;
  for p = arch_regs to pregs - 1 do
    push_free rf p
  done;
  rf

type t = { int_rf : rf; fp_rf : rf; cfg : Config.t }

let create (cfg : Config.t) =
  {
    int_rf = make_rf ~arch_regs:32 ~pregs:cfg.int_pregs;
    fp_rf = make_rf ~arch_regs:32 ~pregs:cfg.fp_pregs;
    cfg;
  }

let rf t is_fp = if is_fp then t.fp_rf else t.int_rf

let lookup t ~is_fp arch = (rf t is_fp).map.(arch)

let free_phys rf p =
  rf.refcnt.(p) <- rf.refcnt.(p) - 1;
  assert (rf.refcnt.(p) >= 0);
  if rf.refcnt.(p) = 0 then push_free rf p

(* Can we rename a uop that needs an int/fp destination? *)
let can_alloc t ~is_fp = (rf t is_fp).free_n > 0

(* Allocate a new destination mapping; returns (prd, old_prd). *)
let alloc t ~is_fp ~arch ~now =
  let rf = rf t is_fp in
  assert (rf.free_n > 0);
  let p = pop_free rf in
  let old_p = rf.map.(arch) in
  rf.map.(arch) <- p;
  rf.refcnt.(p) <- 1;
  rf.ready_at.(p) <- max_int;
  ignore now;
  (p, old_p)

(* Move elimination: map [arch_rd] to the physical register currently
   holding [arch_rs]; returns (prd, old_prd). *)
let alias t ~arch_rd ~arch_rs =
  let rf = t.int_rf in
  let p = rf.map.(arch_rs) in
  let old_p = rf.map.(arch_rd) in
  rf.map.(arch_rd) <- p;
  rf.refcnt.(p) <- rf.refcnt.(p) + 1;
  (p, old_p)

(* Fault injection: alias [arch_rd] onto [arch_rs]'s physical register
   with no uop carrying the old mapping -- the next consumer of
   [arch_rd] reads [arch_rs]'s value and the old physical register
   leaks, as if move elimination mis-fired on an unrelated
   instruction.  The shared register's reference count is bumped so
   later releases stay balanced. *)
let corrupt_alias t ~arch_rd ~arch_rs =
  if arch_rd <> 0 && arch_rd <> arch_rs then begin
    let rf = t.int_rf in
    let p = rf.map.(arch_rs) in
    rf.map.(arch_rd) <- p;
    rf.refcnt.(p) <- rf.refcnt.(p) + 1
  end

(* Commit: release the previous mapping of the destination. *)
let commit_release t ~is_fp ~old_prd =
  if old_prd >= 0 then free_phys (rf t is_fp) old_prd

(* Rollback a squashed uop (must be called youngest-first). *)
let rollback t (u : Uop.t) =
  if u.Uop.prd >= 0 then begin
    let si = u.Uop.si in
    let rf = rf t si.Predecode.rd_is_fp in
    rf.map.(si.Predecode.rd) <- u.Uop.old_prd;
    free_phys rf u.Uop.prd
  end

let set_result t ~is_fp ~prd ~value ~ready_at =
  let rf = rf t is_fp in
  rf.value.(prd) <- value;
  rf.ready_at.(prd) <- ready_at

let value t ~is_fp ~prd = (rf t is_fp).value.(prd)

let ready t ~is_fp ~prd ~now = (rf t is_fp).ready_at.(prd) <= now

(* A uop's sources are all available at [now]?  Straight-line over the
   source fields: the issue planner asks this of every waiting uop
   every cycle. *)
let srcs_ready t (u : Uop.t) ~now =
  let n = u.Uop.n_src and fp = u.Uop.src_fp in
  n = 0
  || ready t ~is_fp:fp.(0) ~prd:u.Uop.ps0 ~now
     && (n = 1
        || ready t ~is_fp:fp.(1) ~prd:u.Uop.ps1 ~now
           && (n = 2 || ready t ~is_fp:fp.(2) ~prd:u.Uop.ps2 ~now))

(* The value of source [i] of [u], once renamed: the physical file's
   own box, so reading a source allocates nothing. *)
let src_value t (u : Uop.t) i =
  value t ~is_fp:u.Uop.src_fp.(i) ~prd:(Uop.psrc u i)

let free_count t ~is_fp = (rf t is_fp).free_n
