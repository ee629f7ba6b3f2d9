(* Branch prediction unit: micro-BTB + BTB, a 4-table TAGE-lite
   direction predictor, a return-address stack, and (for NH) an
   ITTAGE-lite indirect target predictor.

   The BPU also maintains the per-branch confidence estimation table
   used by the PUBS issue policy (§IV-D): a branch is "unconfident"
   until it has accumulated a run of correct predictions. *)

module Cow = Riscv.Cow

(* The predictor tables are flat copy-on-write tables: a LightSSS
   snapshot shares their pages instead of marshalling them.  BTB-like
   tables keep exact 64-bit pcs and targets (wrong-path targets are
   arbitrary 64-bit values), [entry_bytes] per entry: tag at +0,
   target at +8, little-endian; a tag of -1 marks an empty entry.  An
   entry never straddles a page, and its accessors read the page's
   bytes in place, so comparing a tag allocates nothing. *)
let entry_bytes = 16

let empty_entries n =
  Cow.sized ~bytes:(n * entry_bytes) ~fill:(fun page ->
      for i = 0 to (Bytes.length page / entry_bytes) - 1 do
        Bytes.set_int64_le page (i * entry_bytes) (-1L);
        Bytes.set_int64_le page ((i * entry_bytes) + 8) 0L
      done)

let[@inline] page_of b i = (i * entry_bytes) lsr Cow.page_bits b

let[@inline] offset_of b i =
  (i * entry_bytes) land ((1 lsl Cow.page_bits b) - 1)

let[@inline] tag_of b i =
  Bytes.get_int64_le (Cow.read_page b (page_of b i)) (offset_of b i)

let[@inline] target_of b i =
  Bytes.get_int64_le (Cow.read_page b (page_of b i)) (offset_of b i + 8)

let set_entry b i ~tag ~target =
  let page = Cow.write_page b (page_of b i) and off = offset_of b i in
  Bytes.set_int64_le page off tag;
  Bytes.set_int64_le page (off + 8) target

type t = {
  (* BTB: direct-mapped over sets, 2-way *)
  btb : Cow.t;
  btb_sets : int;
  ubtb : Cow.t;
  ubtb_size : int;
  (* TAGE *)
  bimodal : Cow.t; (* 2-bit counters *)
  bimodal_size : int;
  (* 4 tagged tables, entry [i] of table [k] at [k * tage_size + i] *)
  tage_tags : Cow.t;
  tage_ctrs : Cow.t; (* signed, -4..3; >= 0 predicts taken *)
  tage_useful : Cow.t;
  tage_size : int;
  hist_lens : int array;
  mutable ghist : int64; (* global history, newest bit at LSB *)
  (* RAS: [ras_size] unboxed 64-bit return addresses *)
  ras : Bytes.t;
  mutable ras_top : int;
  ras_size : int;
  mutable ras_depth : int; (* live entries, saturating at ras_size *)
  (* ITTAGE-lite *)
  ittage : Cow.t;
  ittage_size : int;
  use_ittage : bool;
  (* PUBS confidence *)
  conf : Cow.t; (* per-pc run counters *)
  conf_size : int;
  (* the last prediction: [predict] reports into these, so a lookup
     allocates nothing *)
  mutable taken : bool;
  next : Bytes.t; (* the predicted next pc, unboxed *)
  (* stats *)
  mutable lookups : int;
  mutable cond_branches : int;
  mutable mispredicts : int;
  (* per-component mispredict attribution *)
  mutable misp_branch : int;
  mutable misp_jal : int;
  mutable misp_jalr : int;
  mutable misp_ret : int;
  (* direction-predictor provider accounting *)
  mutable tage_provided : int;
  mutable bimodal_provided : int;
  (* RAS traffic *)
  mutable ras_pushes : int;
  mutable ras_pops : int;
  mutable ras_overflows : int;
  mutable ras_underflows : int;
}

let create (cfg : Config.t) : t =
  let btb_sets = max 16 (cfg.btb_entries / 2) in
  let tage_size = max 64 cfg.tage_entries in
  {
    btb = empty_entries (btb_sets * 2);
    btb_sets;
    ubtb = empty_entries cfg.ubtb_entries;
    ubtb_size = cfg.ubtb_entries;
    bimodal = Cow.table ~slots:4096 ~init:1;
    bimodal_size = 4096;
    tage_tags = Cow.table ~slots:(4 * tage_size) ~init:(-1);
    tage_ctrs = Cow.table ~slots:(4 * tage_size) ~init:0;
    tage_useful = Cow.table ~slots:(4 * tage_size) ~init:0;
    tage_size;
    hist_lens = [| 8; 16; 32; 60 |];
    ghist = 0L;
    ras = Bytes.make (8 * cfg.ras_size) '\000';
    ras_top = 0;
    ras_size = cfg.ras_size;
    ras_depth = 0;
    ittage = empty_entries (max 16 (cfg.btb_entries / 4));
    ittage_size = max 16 (cfg.btb_entries / 4);
    use_ittage = cfg.ittage;
    conf = Cow.table ~slots:1024 ~init:0;
    conf_size = 1024;
    taken = false;
    next = Bytes.make 8 '\000';
    lookups = 0;
    cond_branches = 0;
    mispredicts = 0;
    misp_branch = 0;
    misp_jal = 0;
    misp_jalr = 0;
    misp_ret = 0;
    tage_provided = 0;
    bimodal_provided = 0;
    ras_pushes = 0;
    ras_pops = 0;
    ras_overflows = 0;
    ras_underflows = 0;
  }

let[@inline] pc_bits pc = Int64.to_int (Int64.shift_right_logical pc 2)

let hist_fold t len =
  (* fold [len] bits of global history into 12 bits *)
  let h = Int64.to_int (Int64.logand t.ghist (Int64.sub (Int64.shift_left 1L (min len 62)) 1L)) in
  (h lxor (h lsr 12) lxor (h lsr 24) lxor (h lsr 36) lxor (h lsr 48)) land 0xFFF

(* The tables are indexed by [pcb], a pc's [pc_bits]: an int, so the
   helpers take no boxed pc. *)

(* Flat index of [pcb]'s entry in tagged table [table]. *)
let tage_index t table pcb =
  (table * t.tage_size)
  + ((pcb lxor hist_fold t t.hist_lens.(table) lxor (table * 0x9E37))
    land (t.tage_size - 1))

let tage_tag t table pcb =
  (pcb lxor (hist_fold t t.hist_lens.(table) * 3) lxor (table * 0x61C))
  land 0xFF

(* The direction provider: the longest matching tagged table, or -1
   for the bimodal base predictor. *)
let provider t pcb =
  let p = ref (-1) in
  for table = 0 to 3 do
    if Cow.get t.tage_tags (tage_index t table pcb) = tage_tag t table pcb then
      p := table
  done;
  !p

let direction t pcb provider =
  if provider >= 0 then Cow.get t.tage_ctrs (tage_index t provider pcb) >= 0
  else Cow.get t.bimodal (pcb land (t.bimodal_size - 1)) >= 2

let[@inline] target t = Bytes.get_int64_ne t.next 0

let[@inline] set_target t v = Bytes.set_int64_ne t.next 0 v

(* On a hit of the BTB-like table [b] at entry [i], report its
   target. *)
let[@inline] entry_hit t b i pc =
  Int64.equal (tag_of b i) pc
  && begin
       set_target t (target_of b i);
       true
     end

(* micro-BTB first, then both ways of the BTB set *)
let[@inline] btb_hit t pc pcb =
  entry_hit t t.ubtb (pcb land (t.ubtb_size - 1)) pc
  ||
  let e0 = (pcb land (t.btb_sets - 1)) * 2 in
  entry_hit t t.btb e0 pc || entry_hit t t.btb (e0 + 1) pc

let btb_update t pc target =
  set_entry t.ubtb (pc_bits pc land (t.ubtb_size - 1)) ~tag:pc ~target;
  let b = t.btb in
  let e0 = (pc_bits pc land (t.btb_sets - 1)) * 2 in
  let e1 = e0 + 1 in
  if tag_of b e0 = pc then set_entry b e0 ~tag:pc ~target
  else if tag_of b e1 = pc then set_entry b e1 ~tag:pc ~target
  else begin
    (* fill the empty way 0, else demote way 0 to way 1 *)
    if tag_of b e0 <> -1L then
      set_entry b e1 ~tag:(tag_of b e0) ~target:(target_of b e0);
    set_entry b e0 ~tag:pc ~target
  end

(* The stack is circular and never refuses a push: on overflow the
   oldest return address is silently overwritten (counted), and a pop
   of an empty stack returns whatever is in the slot (counted).  The
   counters are observation only -- behaviour is unchanged.  A pop
   reports the address as the prediction's target. *)
let[@inline] ras_push t v =
  t.ras_pushes <- t.ras_pushes + 1;
  if t.ras_depth >= t.ras_size then t.ras_overflows <- t.ras_overflows + 1
  else t.ras_depth <- t.ras_depth + 1;
  Bytes.set_int64_ne t.ras (8 * t.ras_top) v;
  t.ras_top <- (t.ras_top + 1) mod t.ras_size

let[@inline] ras_pop t =
  t.ras_pops <- t.ras_pops + 1;
  if t.ras_depth = 0 then t.ras_underflows <- t.ras_underflows + 1
  else t.ras_depth <- t.ras_depth - 1;
  t.ras_top <- (t.ras_top + t.ras_size - 1) mod t.ras_size;
  set_target t (Bytes.get_int64_ne t.ras (8 * t.ras_top))

let is_call (insn : Riscv.Insn.t) =
  match insn with
  | Jal (1, _) | Jalr (1, _, _) -> true
  | _ -> false

let is_ret (insn : Riscv.Insn.t) =
  match insn with Jalr (0, 1, 0L) -> true | _ -> false

(* Predict the outcome of [insn] at [pc] into [taken] and [next].  The
   IFU calls this for every fetched instruction.  Inlined, so a pc
   the caller holds unboxed is never boxed. *)
let[@inline] predict (t : t) ~(pc : int64) ~(insn : Riscv.Insn.t) =
  t.lookups <- t.lookups + 1;
  let pcb = pc_bits pc in
  match insn with
  | Branch (_, _, _, off) ->
      t.cond_branches <- t.cond_branches + 1;
      let provider = provider t pcb in
      if provider >= 0 then t.tage_provided <- t.tage_provided + 1
      else t.bimodal_provided <- t.bimodal_provided + 1;
      let dir = direction t pcb provider in
      t.taken <- dir;
      set_target t (if dir then Int64.add pc off else Int64.add pc 4L)
  | Jal (rd, off) ->
      if rd = 1 then ras_push t (Int64.add pc 4L);
      t.taken <- true;
      set_target t (Int64.add pc off)
  | Jalr (rd, rs1, _) ->
      t.taken <- true;
      if rd = 1 then begin
        if not (btb_hit t pc pcb) then set_target t (Int64.add pc 4L);
        ras_push t (Int64.add pc 4L)
      end
      else if rs1 = 1 && rd = 0 then ras_pop t
      else if
        (* other indirect: ITTAGE (path-hashed), then the BTB *)
        not
          (t.use_ittage
           && entry_hit t t.ittage
                ((pcb lxor hist_fold t 24) land (t.ittage_size - 1))
                pc
          || btb_hit t pc pcb)
      then set_target t (Int64.add pc 4L)
  | Lui _ | Auipc _ | Load _ | Store _ | Op_imm _ | Op_imm_w _ | Op _
  | Op_w _ | Mul _ | Mul_w _ | Lr _ | Sc _ | Amo _ | Csr _ | Ecall | Ebreak
  | Mret | Sret | Wfi | Fence | Fence_i | Sfence_vma _ | Fld _ | Fsd _
  | Fp_rrr _ | Fp_fused _ | Fp_sign _ | Fp_minmax _ | Fp_cmp _ | Fsqrt_d _
  | Fcvt_d_l _ | Fcvt_d_lu _ | Fcvt_d_w _ | Fcvt_l_d _ | Fcvt_lu_d _
  | Fcvt_w_d _ | Fmv_x_d _ | Fmv_d_x _ | Fclass_d _ | Illegal _ ->
      t.taken <- false;
      set_target t (Int64.add pc 4L)

(* Resolve-time update. *)
let update (t : t) ~(pc : int64) ~(insn : Riscv.Insn.t) ~(taken : bool)
    ~(target : int64) ~(mispredicted : bool) =
  if mispredicted then begin
    t.mispredicts <- t.mispredicts + 1;
    match insn with
    | Branch _ -> t.misp_branch <- t.misp_branch + 1
    | Jal _ -> t.misp_jal <- t.misp_jal + 1
    | Jalr _ ->
        if is_ret insn then t.misp_ret <- t.misp_ret + 1
        else t.misp_jalr <- t.misp_jalr + 1
    | _ -> ()
  end;
  (* confidence table for PUBS *)
  let ci = pc_bits pc land (t.conf_size - 1) in
  if mispredicted then Cow.set t.conf ci 0
  else begin
    let c = Cow.get t.conf ci in
    if c < 64 then Cow.set t.conf ci (c + 1)
  end;
  (match insn with
  | Branch _ ->
      (* bimodal *)
      let bi = pc_bits pc land (t.bimodal_size - 1) in
      let c = Cow.get t.bimodal bi in
      Cow.set t.bimodal bi (if taken then min 3 (c + 1) else max 0 (c - 1));
      (* tage provider update + allocation on mispredict *)
      let pcb = pc_bits pc in
      let provider = provider t pcb in
      if provider >= 0 then begin
        let e = tage_index t provider pcb in
        let c = Cow.get t.tage_ctrs e in
        Cow.set t.tage_ctrs e
          (if taken then min 3 (c + 1) else max (-4) (c - 1));
        if not mispredicted then
          Cow.set t.tage_useful e (min 3 (Cow.get t.tage_useful e + 1))
      end;
      if mispredicted then begin
        (* allocate in a longer-history table *)
        let start = provider + 1 in
        (try
           for table = start to 3 do
             let e = tage_index t table pcb in
             let u = Cow.get t.tage_useful e in
             if u = 0 then begin
               Cow.set t.tage_tags e (tage_tag t table pcb);
               Cow.set t.tage_ctrs e (if taken then 0 else -1);
               raise Exit
             end
             else Cow.set t.tage_useful e (u - 1)
           done
         with Exit -> ())
      end;
      (* fold outcome into history *)
      t.ghist <-
        Int64.logor
          (Int64.shift_left t.ghist 1)
          (if taken then 1L else 0L)
  | Jal _ -> ()
  | Jalr _ ->
      if not (is_ret insn) then begin
        btb_update t pc target;
        if t.use_ittage then begin
          let idx = (pc_bits pc lxor hist_fold t 24) land (t.ittage_size - 1) in
          set_entry t.ittage idx ~tag:pc ~target
        end
      end
  | Lui _ | Auipc _ | Load _ | Store _ | Op_imm _ | Op_imm_w _ | Op _
  | Op_w _ | Mul _ | Mul_w _ | Lr _ | Sc _ | Amo _ | Csr _ | Ecall | Ebreak
  | Mret | Sret | Wfi | Fence | Fence_i | Sfence_vma _ | Fld _ | Fsd _
  | Fp_rrr _ | Fp_fused _ | Fp_sign _ | Fp_minmax _ | Fp_cmp _ | Fsqrt_d _
  | Fcvt_d_l _ | Fcvt_d_lu _ | Fcvt_d_w _ | Fcvt_l_d _ | Fcvt_lu_d _
  | Fcvt_w_d _ | Fmv_x_d _ | Fmv_d_x _ | Fclass_d _ | Illegal _ ->
      ());
  (match insn with
  | Branch _ -> ()
  | _ when taken -> btb_update t pc target
  | _ -> ())

(* Fault injection: flip an address bit in every valid predicted
   target (BTB, micro-BTB, ITTAGE).  Harmless on its own -- branch
   resolution redirects -- so campaign faults pair it with the core's
   redirect-suppression knob to turn wrong predictions into wrong-path
   commits.  Returns the number of entries corrupted. *)
let corrupt_targets (t : t) : int =
  let n = ref 0 in
  let corrupt b n_entries =
    for i = 0 to n_entries - 1 do
      if tag_of b i <> -1L then begin
        set_entry b i ~tag:(tag_of b i)
          ~target:(Int64.logxor (target_of b i) 8L);
        incr n
      end
    done
  in
  corrupt t.btb (2 * t.btb_sets);
  corrupt t.ubtb t.ubtb_size;
  corrupt t.ittage t.ittage_size;
  !n

(* Low-confidence query for PUBS: a branch is unconfident until it has
   a run of >= 4 correct predictions (paper: ~5.9% of instructions end
   up high-priority on sjeng). *)
let[@inline] unconfident (t : t) ~pc =
  Cow.get t.conf (pc_bits pc land (t.conf_size - 1)) < 4

let tables (t : t) =
  [
    t.btb; t.ubtb; t.bimodal; t.tage_tags; t.tage_ctrs; t.tage_useful;
    t.ittage; t.conf;
  ]

let mpki t ~instructions =
  if instructions = 0 then 0.0
  else 1000.0 *. float_of_int t.mispredicts /. float_of_int instructions
