(* Register renaming: separate integer and floating-point physical
   register files with free lists, plus reference-counting move
   elimination for the integer file (Table II: NH feature).

   The physical register files also hold the speculative values and
   their ready cycles -- the "execute at issue" model computes results
   straight into the physical file.  Values are an unboxed column, 8
   bytes per register, so writing a result allocates nothing and pays
   no write barrier. *)

type rf = {
  map : int array; (* arch -> phys *)
  (* the free list, FIFO: a ring of [pregs] slots holding [free_n]
     registers from [free_head] (one array, not a queue cell per free
     register, in the heap and in a LightSSS image) *)
  free : int array;
  mutable free_head : int;
  mutable free_n : int;
  value : Bytes.t; (* 8 bytes per physical register *)
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
      value = Bytes.make (8 * pregs) '\000';
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

let[@inline] rf t is_fp = if is_fp then t.fp_rf else t.int_rf

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

(* Rollback the squashed uop in row [r] (must be called
   youngest-first). *)
let rollback t (u : Uop.t) r =
  let prd = Uop.get u r Uop.i_prd in
  if prd >= 0 then begin
    let si = Uop.si u r in
    let rf = rf t si.Predecode.rd_is_fp in
    rf.map.(si.Predecode.rd) <- Uop.get u r Uop.i_old_prd;
    free_phys rf prd
  end

(* A physical register's value, unboxed until the caller needs a box. *)
let[@inline] reg_value t ~is_fp p =
  Bytes.get_int64_ne (rf t is_fp).value (p lsl 3)

let[@inline] set_result t ~is_fp ~prd ~value ~ready_at =
  let rf = rf t is_fp in
  Bytes.set_int64_ne rf.value (prd lsl 3) value;
  rf.ready_at.(prd) <- ready_at

let[@inline] ready t ~is_fp ~prd ~now = (rf t is_fp).ready_at.(prd) <= now

(* The sources of the uop in row [r] are all available at [now]?
   Straight-line over the sources: the issue planner asks this of
   every waiting uop every cycle. *)
let srcs_ready t (u : Uop.t) r ~now =
  let n = Uop.get u r Uop.i_n_src in
  n = 0
  || ready t ~is_fp:(Uop.src_fp u r 0) ~prd:(Uop.psrc u r 0) ~now
     && (n = 1
        || ready t ~is_fp:(Uop.src_fp u r 1) ~prd:(Uop.psrc u r 1) ~now
           && (n = 2
              || ready t ~is_fp:(Uop.src_fp u r 2) ~prd:(Uop.psrc u r 2) ~now))

let free_count t ~is_fp = (rf t is_fp).free_n
