(* Backend structures in isolation: ROB ordering and squash, rename
   free-list and move-elimination refcounting, issue-queue policies,
   macro-op fusion patterns, and the assembler DSL. *)

open Riscv
module U = Xiangshan.Uop

module Uop_helpers = struct
  (* Initialise the row of [seq] in [uops] as a waiting uop; returns
     the row. *)
  let make uops ~seq ~pc ~insn =
    U.init uops ~seq ~si:(Xiangshan.Predecode.of_insn insn)
      ~second:Xiangshan.Predecode.none ~fusion:None;
    U.set_pcs uops (U.row uops seq) ~pc ~pred_next:(Int64.add pc 4L);
    U.row uops seq
end

let test_rob_order_and_squash () =
  let rob = Xiangshan.Rob.create ~size:8 in
  let uops = rob.Xiangshan.Rob.uops in
  for s = 0 to 5 do
    ignore
      (Uop_helpers.make uops ~seq:s ~pc:0x80000000L
         ~insn:(Insn.Op_imm (ADD, 1, 0, Int64.of_int s)));
    Xiangshan.Rob.push rob s
  done;
  Alcotest.(check int) "count" 6 (Xiangshan.Rob.count rob);
  (* squash younger than seq 2 *)
  let old_tail = Xiangshan.Rob.squash_younger rob ~after:2 in
  let tail = rob.Xiangshan.Rob.tail in
  Alcotest.(check int) "squashed" 3 (old_tail - tail);
  (* walked youngest first, for rename rollback *)
  Alcotest.(check (list int)) "youngest-first order" [ 5; 4; 3 ]
    (List.init (old_tail - tail) (fun i -> old_tail - 1 - i));
  Alcotest.(check (list bool)) "rows marked squashed"
    [ false; false; false; true; true; true ]
    (List.init 6 (fun s ->
         U.flag uops (U.row uops s) U.b_squashed));
  Alcotest.(check int) "remaining" 3 (Xiangshan.Rob.count rob);
  Alcotest.(check int) "head" 0 (Xiangshan.Rob.head_seq rob);
  Xiangshan.Rob.pop_head rob;
  Alcotest.(check int) "next head" 1 (Xiangshan.Rob.head_seq rob)

let test_rename_freelist_and_rollback () =
  let cfg = { Xiangshan.Config.yqh with Xiangshan.Config.int_pregs = 40 } in
  let rn = Xiangshan.Rename.create cfg in
  Alcotest.(check int) "initial free" 8
    (Xiangshan.Rename.free_count rn ~is_fp:false);
  let uops = U.create ~cap:4 in
  let r =
    Uop_helpers.make uops ~seq:0 ~pc:0L ~insn:(Insn.Op_imm (ADD, 5, 5, 1L))
  in
  let before = Xiangshan.Rename.lookup rn ~is_fp:false 5 in
  let prd, old_prd = Xiangshan.Rename.alloc rn ~is_fp:false ~arch:5 ~now:0 in
  (* the destination x5 comes from the uop's static record *)
  U.set uops r U.i_prd prd;
  U.set uops r U.i_old_prd old_prd;
  Alcotest.(check int) "old mapping recorded" before old_prd;
  Alcotest.(check int) "new mapping installed" prd
    (Xiangshan.Rename.lookup rn ~is_fp:false 5);
  (* rollback restores the old mapping and frees the new register *)
  let free_before = Xiangshan.Rename.free_count rn ~is_fp:false in
  Xiangshan.Rename.rollback rn uops r;
  Alcotest.(check int) "mapping restored" before
    (Xiangshan.Rename.lookup rn ~is_fp:false 5);
  Alcotest.(check int) "register freed" (free_before + 1)
    (Xiangshan.Rename.free_count rn ~is_fp:false)

let test_move_elimination_refcount () =
  let cfg = { Xiangshan.Config.nh_single with Xiangshan.Config.int_pregs = 40 } in
  let rn = Xiangshan.Rename.create cfg in
  (* mv x6, x5: both arch regs map to one physical register *)
  let p5 = Xiangshan.Rename.lookup rn ~is_fp:false 5 in
  let prd, old6 = Xiangshan.Rename.alias rn ~arch_rd:6 ~arch_rs:5 in
  Alcotest.(check int) "aliased" p5 prd;
  Alcotest.(check int) "same mapping" p5 (Xiangshan.Rename.lookup rn ~is_fp:false 6);
  (* releasing one of the two references must not free the register *)
  let free0 = Xiangshan.Rename.free_count rn ~is_fp:false in
  Xiangshan.Rename.commit_release rn ~is_fp:false ~old_prd:prd;
  Alcotest.(check int) "still held by x5" free0
    (Xiangshan.Rename.free_count rn ~is_fp:false);
  Xiangshan.Rename.commit_release rn ~is_fp:false ~old_prd:prd;
  Alcotest.(check int) "freed on last release" (free0 + 1)
    (Xiangshan.Rename.free_count rn ~is_fp:false);
  ignore old6

let test_iq_policies () =
  let iqc =
    {
      Xiangshan.Config.iq_name = "t";
      iq_size = 8;
      iq_issue = 2;
      iq_classes = [ Xiangshan.Config.ALU ];
    }
  in
  let uops = U.create ~cap:8 in
  let mk seq prio =
    let r =
      Uop_helpers.make uops ~seq ~pc:0L ~insn:(Insn.Op_imm (ADD, 1, 1, 1L))
    in
    U.set_flag uops r U.b_priority prio;
    seq
  in
  let planned iq =
    let ready = Xiangshan.Iq.plan_issue iq ~ready:(fun () _ -> true) () in
    Alcotest.(check int) "every waiting uop is ready" 3 ready;
    List.init (Xiangshan.Iq.planned iq) (Xiangshan.Iq.planned_seq iq)
  in
  (* AGE: oldest two of the ready set *)
  let iq = Xiangshan.Iq.create iqc ~policy:Xiangshan.Config.Age ~uops in
  List.iter (Xiangshan.Iq.insert iq) [ mk 3 false; mk 1 false; mk 2 true ];
  Alcotest.(check (list int)) "age order" [ 3; 1 ] (planned iq);
  (* (slots keep insertion order = age order in the pipeline; here we
     inserted out of order on purpose to check it is insertion order) *)
  let iq2 = Xiangshan.Iq.create iqc ~policy:Xiangshan.Config.Pubs ~uops in
  List.iter (Xiangshan.Iq.insert iq2) [ mk 1 false; mk 2 false; mk 3 true ];
  Alcotest.(check (list int)) "pubs puts priority first" [ 3; 1 ] (planned iq2);
  Xiangshan.Iq.clear_plan iq2;
  Alcotest.(check int) "plan cleared" 0 (Xiangshan.Iq.planned iq2)

(* --- array queues against the list-based queues they replaced -------- *)

(* The issue queue and the LSU's LQ/SQ as they were kept before they
   became arrays: age-ordered lists, appended with [@] and filtered on
   removal.  Kept here only as the reference the array queues must
   match operation for operation.  Both name uops by sequence number
   and read them from the same rows. *)
module List_iq = struct
  type t = {
    cfg : Xiangshan.Config.iq_config;
    policy : Xiangshan.Config.issue_policy;
    uops : U.t;
    mutable slots : int list;
  }

  let create cfg ~policy ~uops = { cfg; policy; uops; slots = [] }

  let row t seq = U.row t.uops seq

  let insert t seq =
    U.set_flag t.uops (row t seq) U.b_in_iq true;
    t.slots <- t.slots @ [ seq ]

  let drop_squashed t =
    t.slots <-
      List.filter
        (fun seq ->
          let squashed = U.flag t.uops (row t seq) U.b_squashed in
          if squashed then U.set_flag t.uops (row t seq) U.b_in_iq false;
          not squashed)
        t.slots

  let rec take n = function
    | [] -> []
    | u :: rest -> if n = 0 then [] else u :: take (n - 1) rest

  let select_counted t ~ready =
    let candidates =
      List.filter
        (fun seq ->
          U.get t.uops (row t seq) U.i_state = U.waiting && ready seq)
        t.slots
    in
    let ordered =
      match t.policy with
      | Xiangshan.Config.Age -> candidates
      | Xiangshan.Config.Pubs ->
          let hi, lo =
            List.partition
              (fun seq -> U.flag t.uops (row t seq) U.b_priority)
              candidates
          in
          hi @ lo
    in
    (take t.cfg.iq_issue ordered, List.length candidates)

  let remove t seq =
    U.set_flag t.uops (row t seq) U.b_in_iq false;
    t.slots <- List.filter (fun v -> v <> seq) t.slots

  let steal_waiting t =
    match
      List.find_opt
        (fun seq -> U.get t.uops (row t seq) U.i_state = U.waiting)
        t.slots
    with
    | Some seq ->
        remove t seq;
        seq
    | None -> -1
end

module List_lsq = struct
  type sb_entry = { sb_paddr : int64; sb_size : int; sb_data : int64 }

  type t = {
    uops : U.t;
    mutable lq : int list;
    mutable sq : int list;
    sb : sb_entry Queue.t;
    mutable forwards : int;
    mutable blocked_loads : int;
    mutable forward_misses : int;
  }

  let create ~uops =
    {
      uops;
      lq = [];
      sq = [];
      sb = Queue.create ();
      forwards = 0;
      blocked_loads = 0;
      forward_misses = 0;
    }

  let row t seq = U.row t.uops seq

  let insert_load t u = t.lq <- t.lq @ [ u ]
  let insert_store t u = t.sq <- t.sq @ [ u ]

  let drop_squashed t =
    let live seq = not (U.flag t.uops (row t seq) U.b_squashed) in
    t.lq <- List.filter live t.lq;
    t.sq <- List.filter live t.sq

  let older_stores_known t ~seq =
    List.for_all
      (fun s -> s >= seq || U.flag t.uops (row t s) U.b_addr_ready)
      t.sq

  let ranges_overlap a1 s1 a2 s2 =
    let e1 = Int64.add a1 (Int64.of_int s1)
    and e2 = Int64.add a2 (Int64.of_int s2) in
    not (e1 <= a2 || e2 <= a1)

  let contains a1 s1 a2 s2 =
    a2 >= a1 && Int64.add a2 (Int64.of_int s2) <= Int64.add a1 (Int64.of_int s1)

  let extract ~data ~from_addr ~at ~size =
    let v =
      Int64.shift_right_logical data (8 * Int64.to_int (Int64.sub at from_addr))
    in
    if size >= 8 then v
    else Int64.logand v (Int64.sub (Int64.shift_left 1L (8 * size)) 1L)

  let forward t ~seq ~paddr ~size =
    let best = ref Xiangshan.Lsu.No_match in
    Queue.iter
      (fun (e : sb_entry) ->
        if contains e.sb_paddr e.sb_size paddr size then
          best :=
            Forward (extract ~data:e.sb_data ~from_addr:e.sb_paddr ~at:paddr ~size)
        else if ranges_overlap e.sb_paddr e.sb_size paddr size then
          best := Blocked)
      t.sb;
    let u = t.uops in
    List.iter
      (fun s ->
        let r = row t s in
        let s_paddr = U.get64 u r U.w_paddr and s_size = U.get u r U.i_msize in
        if s < seq && U.flag u r U.b_addr_ready && not (U.flag u r U.b_mmio)
        then
          if contains s_paddr s_size paddr size then
            best :=
              Forward
                (extract ~data:(U.get64 u r U.w_sdata) ~from_addr:s_paddr ~at:paddr
                   ~size)
          else if ranges_overlap s_paddr s_size paddr size then
            best := Blocked)
      t.sq;
    (match !best with
    | Forward _ -> t.forwards <- t.forwards + 1
    | Blocked -> t.blocked_loads <- t.blocked_loads + 1
    | No_match -> t.forward_misses <- t.forward_misses + 1);
    !best

  let commit_store t seq =
    let r = row t seq in
    Queue.add
      {
        sb_paddr = U.get64 t.uops r U.w_paddr;
        sb_size = U.get t.uops r U.i_msize;
        sb_data = U.get64 t.uops r U.w_sdata;
      }
      t.sb;
    t.sq <- List.filter (fun v -> v <> seq) t.sq

  let remove_load t seq = t.lq <- List.filter (fun v -> v <> seq) t.lq
end
(* [pick] indexes the live unsquashed uops, oldest first, modulo
   their number; [kind] 0 = IQ only, 1 = load (IQ + LQ), 2 = store
   (IQ + SQ). *)
type queue_op =
  | Dispatch of { kind : int; prio : bool }
  | Set of {
      pick : int;
      state : int;
      prio : bool;
      ready : bool;
      addr_ready : bool;
      off : int;
      size : int;
    }
  | Squash of { keep : int }
  | Remove of { pick : int }
  | Steal
  | Retire of { pick : int }
  | Select
  | Forward of { pick : int; off : int; size : int }
  | Drain

let show_queue_op = function
  | Dispatch { kind; prio } -> Printf.sprintf "dispatch(%d%s)" kind (if prio then "!" else "")
  | Set { pick; state; prio; ready; addr_ready; off; size } ->
      Printf.sprintf "set(#%d s%d%s%s%s @%d/%d)" pick state
        (if prio then " prio" else "")
        (if ready then " ready" else "")
        (if addr_ready then " addr" else "")
        off size
  | Squash { keep } -> Printf.sprintf "squash(keep %d)" keep
  | Remove { pick } -> Printf.sprintf "remove(#%d)" pick
  | Steal -> "steal"
  | Retire { pick } -> Printf.sprintf "retire(#%d)" pick
  | Select -> "select"
  | Forward { pick; off; size } -> Printf.sprintf "forward(#%d @%d/%d)" pick off size
  | Drain -> "drain"

type queue_case = {
  qc_policy : Xiangshan.Config.issue_policy;
  qc_issue : int;
  qc_ops : queue_op list;
}

let show_queue_case c =
  Printf.sprintf "%s issue=%d: %s"
    (match c.qc_policy with Xiangshan.Config.Age -> "AGE" | Pubs -> "PUBS")
    c.qc_issue
    (String.concat " " (List.map show_queue_op c.qc_ops))

let gen_queue_case =
  let open QCheck2.Gen in
  let pick = int_range 0 63 and off = int_range 0 23 in
  let size = oneofl [ 1; 2; 4; 8 ] in
  let op =
    frequency
      [
        (8, map2 (fun kind prio -> Dispatch { kind; prio }) (int_range 0 2) bool);
        ( 6,
          map
            (fun (pick, state, prio, ready, addr_ready, off, size) ->
              Set { pick; state; prio; ready; addr_ready; off; size })
            (tup7 pick (int_range 0 2) bool bool bool off size) );
        (1, map (fun keep -> Squash { keep }) (int_range 0 12));
        (2, map (fun pick -> Remove { pick }) pick);
        (1, pure Steal);
        (2, map (fun pick -> Retire { pick }) pick);
        (4, pure Select);
        (3, map3 (fun pick off size -> Forward { pick; off; size }) pick off size);
        (1, pure Drain);
      ]
  in
  map3
    (fun qc_policy qc_issue qc_ops -> { qc_policy; qc_issue; qc_ops })
    (oneofl [ Xiangshan.Config.Age; Xiangshan.Config.Pubs ])
    (int_range 1 2)
    (list_size (int_range 1 300) op)

(* Replay one op stream against the array queues and the list
   reference, sharing the uops; every answer and occupancy must agree
   after every op. *)
let queues_agree c =
  let iqc =
    {
      Xiangshan.Config.iq_name = "q";
      iq_size = 8;
      iq_issue = c.qc_issue;
      iq_classes = [ Xiangshan.Config.ALU ];
    }
  in
  let cfg =
    (* a small store buffer, so the ring wraps and fills *)
    { Xiangshan.Config.yqh with lq_size = 6; sq_size = 6; store_buffer_size = 3 }
  in
  let backing = Memory.create ~base:Platform.dram_base ~size:(1 lsl 16) () in
  let dcache =
    Softmem.Cache.create ~name:"l1d" ~size_bytes:4096 ~ways:4 ~line_shift:6
      ~hit_latency:2 ~backing ()
  in
  (* rows enough that no op stream reuses one *)
  let uops = U.create ~cap:512 in
  let iq = Xiangshan.Iq.create iqc ~policy:c.qc_policy ~uops
  and ref_iq = List_iq.create iqc ~policy:c.qc_policy ~uops
  and lsu = Xiangshan.Lsu.create cfg ~dcache ~uops
  and ref_lsq = List_lsq.create ~uops in
  let row = U.row uops in
  let ready = Hashtbl.create 64 in
  let is_ready seq = Hashtbl.mem ready seq in
  let next_seq = ref 0 and live = ref [||] in
  let pick i = !live.(i mod Array.length !live) in
  let prefix q n = Array.to_list (Array.sub q 0 n) in
  let agree () =
    prefix iq.slots (Xiangshan.Iq.occupancy iq) = ref_iq.slots
    && prefix lsu.lq (Xiangshan.Lsu.lq_occupancy lsu) = ref_lsq.lq
    && prefix lsu.sq (Xiangshan.Lsu.sq_occupancy lsu) = ref_lsq.sq
    && List.for_all
         (fun seq ->
           Xiangshan.Lsu.older_stores_known lsu ~seq
           = List_lsq.older_stores_known ref_lsq ~seq)
         (List.init (!next_seq + 2) Fun.id)
  in
  let now = ref 0 in
  let drain () =
    (* one drain, far enough apart that the drain interval never
       holds it back; the drained entry must be the list's oldest *)
    now := !now + 1_000;
    let drained = ref None in
    Xiangshan.Lsu.drain lsu ~now:!now ~on_drain:(fun pa n ->
        drained := Some (pa, n));
    match Queue.take_opt ref_lsq.sb with
    | None -> !drained = None
    | Some e -> !drained = Some (e.sb_paddr, e.sb_size)
  in
  let step = function
    | Dispatch { kind; prio } ->
        let seq = !next_seq in
        let r =
          Uop_helpers.make uops ~seq ~pc:0L ~insn:(Insn.Op_imm (ADD, 1, 1, 1L))
        in
        incr next_seq;
        U.set_flag uops r U.b_priority prio;
        U.set uops r U.i_msize 8;
        (* in backing memory: a committed store may be drained *)
        U.set64 uops r U.w_paddr 0x8000_0000L;
        live := Array.append !live [| seq |];
        if not (Xiangshan.Iq.is_full iq) then begin
          Xiangshan.Iq.insert iq seq;
          List_iq.insert ref_iq seq
        end;
        if kind = 1 && Xiangshan.Lsu.lq_occupancy lsu < cfg.lq_size then begin
          Xiangshan.Lsu.insert_load lsu seq;
          List_lsq.insert_load ref_lsq seq
        end;
        if kind = 2 && Xiangshan.Lsu.sq_occupancy lsu < cfg.sq_size then begin
          Xiangshan.Lsu.insert_store lsu seq;
          List_lsq.insert_store ref_lsq seq
        end;
        true
    | Set { pick = i; state; prio; ready = rdy; addr_ready; off; size } ->
        if !live <> [||] then begin
          let seq = pick i in
          let r = row seq in
          U.set uops r U.i_state [| U.waiting; U.issued; U.completed |].(state);
          U.set_flag uops r U.b_priority prio;
          if rdy then Hashtbl.replace ready seq ()
          else Hashtbl.remove ready seq;
          U.set_flag uops r U.b_addr_ready addr_ready;
          U.set64 uops r U.w_paddr (Int64.of_int (0x8000_0000 + off));
          U.set uops r U.i_msize size;
          U.set64 uops r U.w_sdata
            (Int64.mul 0x0102030405060708L (Int64.of_int (seq + 1)))
        end;
        true
    | Squash { keep } ->
        let n = min keep (Array.length !live) in
        Array.iteri
          (fun i seq ->
            if i >= n then U.set_flag uops (row seq) U.b_squashed true)
          !live;
        live := Array.sub !live 0 n;
        Xiangshan.Iq.drop_squashed iq;
        List_iq.drop_squashed ref_iq;
        Xiangshan.Lsu.drop_squashed lsu;
        List_lsq.drop_squashed ref_lsq;
        true
    | Remove { pick = i } ->
        if !live <> [||] then begin
          let seq = pick i in
          Xiangshan.Iq.remove iq seq;
          List_iq.remove ref_iq seq
        end;
        true
    | Steal -> Xiangshan.Iq.steal_waiting iq = List_iq.steal_waiting ref_iq
    | Retire { pick = i } ->
        if !live <> [||] then begin
          let seq = pick i in
          Xiangshan.Lsu.remove_load lsu seq;
          List_lsq.remove_load ref_lsq seq;
          if List.mem seq ref_lsq.sq && not (Xiangshan.Lsu.sb_full lsu)
          then begin
            Xiangshan.Lsu.commit_store lsu seq;
            List_lsq.commit_store ref_lsq seq
          end
        end;
        true
    | Select ->
        let n =
          Xiangshan.Iq.plan_issue iq
            ~ready:(fun () r -> is_ready (U.get uops r U.i_seq))
            ()
        in
        let planned =
          List.init (Xiangshan.Iq.planned iq) (Xiangshan.Iq.planned_seq iq)
        in
        Xiangshan.Iq.clear_plan iq;
        let chosen, total = List_iq.select_counted ref_iq ~ready:is_ready in
        planned = chosen && n = total
    | Forward { pick = i; off; size } ->
        let seq = if !live = [||] then !next_seq else pick i in
        let paddr = Int64.of_int (0x8000_0000 + off) in
        Xiangshan.Lsu.forward lsu ~seq ~paddr ~size
        = List_lsq.forward ref_lsq ~seq ~paddr ~size
        && lsu.forwards = ref_lsq.forwards
        && lsu.blocked_loads = ref_lsq.blocked_loads
        && lsu.forward_misses = ref_lsq.forward_misses
    | Drain -> drain ()
  in
  List.for_all
    (fun op ->
      step op && agree ()
      && Xiangshan.Lsu.sb_occupancy lsu = Queue.length ref_lsq.sb)
    c.qc_ops

let test_queues_match_lists =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"array IQ/LQ/SQ answer like the list queues"
       ~print:show_queue_case gen_queue_case queues_agree)

(* --- reused ROB rows ---------------------------------------------------- *)

(* A uop's ROB row is reused by later uops.  A squashed uop's seq is
   reallocated from the new tail (its successor takes the same seq and
   row), so the flush must drop every reference to it, the IQ's plan
   buffer included; a retired uop's seq is never reallocated, so an
   entry that outlived it (commit removes every store from the SQ, so
   this case builds one by hand) would see the row's new occupant as
   someone else and leave it alone. *)
let test_reused_rows () =
  let rob = Xiangshan.Rob.create ~size:4 in
  let uops = rob.Xiangshan.Rob.uops in
  let rows = U.rows uops in
  Alcotest.(check int) "a row per slot" 4 rows;
  let iqc =
    {
      Xiangshan.Config.iq_name = "q";
      iq_size = 4;
      iq_issue = 2;
      iq_classes = [ Xiangshan.Config.ALU ];
    }
  in
  let iq = Xiangshan.Iq.create iqc ~policy:Xiangshan.Config.Age ~uops in
  let cfg = { Xiangshan.Config.yqh with lq_size = 4; sq_size = 4 } in
  let backing = Memory.create ~base:Platform.dram_base ~size:(1 lsl 16) () in
  let dcache =
    Softmem.Cache.create ~name:"l1d" ~size_bytes:4096 ~ways:4 ~line_shift:6
      ~hit_latency:2 ~backing ()
  in
  let lsu = Xiangshan.Lsu.create cfg ~dcache ~uops in
  let dispatch seq insn =
    let r = Uop_helpers.make uops ~seq ~pc:0x8000_0000L ~insn in
    Xiangshan.Rob.push rob seq;
    r
  in
  let flush ~after =
    ignore (Xiangshan.Rob.squash_younger rob ~after);
    Xiangshan.Iq.drop_squashed iq;
    Xiangshan.Lsu.drop_squashed lsu
  in
  let plan () =
    ignore (Xiangshan.Iq.plan_issue iq ~ready:(fun () _ -> true) ());
    List.init (Xiangshan.Iq.planned iq) (Xiangshan.Iq.planned_seq iq)
  in
  (* 1. squashed while the IQ's phase-1 plan and the LQ name it *)
  let r0 = dispatch 0 (Insn.Load (LD, 1, 0, 0L)) in
  Xiangshan.Iq.insert iq 0;
  Xiangshan.Lsu.insert_load lsu 0;
  Alcotest.(check (list int)) "planned" [ 0 ] (plan ());
  flush ~after:(-1);
  Alcotest.(check int) "the flush drops the planned uop" 0
    (Xiangshan.Iq.planned iq);
  Alcotest.(check int) "and its LQ entry" 0 (Xiangshan.Lsu.lq_occupancy lsu);
  (* the next dispatch takes the same seq and row, as a waiting uop
     with no sources: a stale plan entry would issue it *)
  let r0' = dispatch 0 (Insn.Op_imm (ADD, 2, 0, 2L)) in
  Alcotest.(check int) "same row" r0 r0';
  Alcotest.(check bool) "occupant is live" true (U.live uops 0);
  Alcotest.(check int) "nothing planned names it" 0 (Xiangshan.Iq.planned iq);
  Alcotest.(check bool) "not in an IQ" false (U.flag uops r0' U.b_in_iq);
  Xiangshan.Rob.pop_head rob;
  (* 2. a store to MMIO retires, its SQ entry left behind; rows wrap
     until seq 1 + rows takes its row *)
  let x = 0x8000_0100L in
  let r1 = dispatch 1 (Insn.Store (SD, 0, 2, 0x100L)) in
  Xiangshan.Lsu.insert_store lsu 1;
  U.set_flag uops r1 U.b_addr_ready true;
  U.set_flag uops r1 U.b_mmio true;
  U.set64 uops r1 U.w_paddr x;
  U.set uops r1 U.i_msize 8;
  Xiangshan.Rob.pop_head rob;
  for seq = 2 to rows do
    ignore (dispatch seq (Insn.Op_imm (ADD, 3, 0, 1L)));
    Xiangshan.Rob.pop_head rob
  done;
  (* the new occupant of row 1: a resolved, cacheable store to the same
     address, which the SQ does not hold *)
  let seq' = 1 + rows in
  let r1' = dispatch seq' (Insn.Store (SD, 0, 2, 0x100L)) in
  Alcotest.(check int) "row reused" r1 r1';
  U.set_flag uops r1' U.b_addr_ready true;
  U.set64 uops r1' U.w_paddr x;
  U.set uops r1' U.i_msize 8;
  U.set64 uops r1' U.w_sdata 0x5555L;
  Alcotest.(check bool) "stale SQ entry no longer holds its row" false
    (U.holds uops 1);
  Alcotest.(check bool) "it never forwards the occupant's data" true
    (Xiangshan.Lsu.forward lsu ~seq:(seq' + 1) ~paddr:x ~size:8
    = Xiangshan.Lsu.No_match);
  U.set_flag uops r1' U.b_addr_ready false;
  Alcotest.(check bool) "nor stalls a load on the occupant's address" true
    (Xiangshan.Lsu.older_stores_known lsu ~seq:(seq' + 1));
  (* committing the occupant (it is not in the SQ) leaves the stale
     entry, as does squashing it *)
  U.set_flag uops r1' U.b_addr_ready true;
  Xiangshan.Lsu.commit_store lsu seq';
  Alcotest.(check int) "stale entry survives the occupant's commit" 1
    (Xiangshan.Lsu.sq_occupancy lsu);
  Xiangshan.Rob.pop_head rob;
  for seq = seq' + 1 to seq' + rows - 1 do
    ignore (dispatch seq (Insn.Op_imm (ADD, 3, 0, 1L)));
    Xiangshan.Rob.pop_head rob
  done;
  let r1'' = dispatch (seq' + rows) (Insn.Op_imm (ADD, 3, 0, 1L)) in
  Alcotest.(check int) "row reused again" r1 r1'';
  flush ~after:(seq' + rows - 1);
  Alcotest.(check bool) "occupant squashed" true
    (U.flag uops r1'' U.b_squashed);
  Alcotest.(check (list int)) "the squash keeps the stale entry" [ 1 ]
    (Array.to_list
       (Array.sub lsu.Xiangshan.Lsu.sq 0 (Xiangshan.Lsu.sq_occupancy lsu)))

let test_fusion_patterns () =
  let f = Xiangshan.Fusion.try_fuse in
  (* lui+addi *)
  (match f (Insn.Lui (5, 0x12345000L)) (Insn.Op_imm (ADD, 5, 5, 0x67AL)) with
  | Some (U.Fused_lui_addi c) ->
      Alcotest.(check int64) "constant" 0x1234567AL c
  | _ -> Alcotest.fail "lui+addi must fuse");
  (* lui+addiw (the 32-bit li idiom) *)
  (match f (Insn.Lui (5, 0x80000000L)) (Insn.Op_imm_w (ADDW, 5, 5, -1L)) with
  | Some (U.Fused_lui_addi c) ->
      Alcotest.(check int64) "sext32 constant" 0x7FFFFFFFL c
  | _ -> Alcotest.fail "lui+addiw must fuse");
  (* zext.w *)
  (match f (Insn.Op_imm (SLL, 7, 3, 32L)) (Insn.Op_imm (SRL, 7, 7, 32L)) with
  | Some U.Fused_zext_w -> ()
  | _ -> Alcotest.fail "slli+srli must fuse to zext.w");
  (* shNadd *)
  (match f (Insn.Op_imm (SLL, 7, 3, 3L)) (Insn.Op (ADD, 7, 7, 9)) with
  | Some (U.Fused_sh_add 3) -> ()
  | _ -> Alcotest.fail "slli+add must fuse to sh3add");
  (* must NOT fuse when the intermediate register escapes *)
  (match f (Insn.Lui (5, 0x1000L)) (Insn.Op_imm (ADD, 6, 5, 1L)) with
  | None -> ()
  | Some _ -> Alcotest.fail "different rd must not fuse");
  match f (Insn.Op_imm (SLL, 7, 3, 4L)) (Insn.Op (ADD, 7, 7, 9)) with
  | None -> ()
  | Some _ -> Alcotest.fail "shift of 4 is not a shNadd"

(* --- assembler DSL ------------------------------------------------------ *)

let run_items items =
  let prog = Asm.assemble items in
  let m = Iss.Interp.create ~hartid:0 () in
  Iss.Interp.load_program m prog;
  let _ = Iss.Interp.run ~max_insns:10_000 m in
  m

let li_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"asm: li materialises any constant"
    QCheck2.Gen.(
      oneof
        [
          map Int64.of_int int;
          map Int64.of_int (int_range (-5000) 5000);
          oneofl [ 0L; -1L; Int64.min_int; Int64.max_int; 0x8000_0000L ];
        ])
    (fun v ->
      let m =
        run_items
          Asm.(
            [ li a0 v ]
            @ [
                i (Insn.Op_imm (AND, a0, a0, -1L));
                label "h";
                j "h";
              ])
      in
      (* the ISS stops on the instruction budget in the halt loop *)
      Arch_state.get_reg m.Iss.Interp.st Asm.a0 = v)

let test_asm_errors () =
  (* branch out of range *)
  (try
     let items =
       Asm.label "a"
       :: List.init 2000 (fun _ -> Asm.i (Insn.Op_imm (ADD, 0, 0, 0L)))
       @ [ Asm.beq 0 0 "a" ]
     in
     ignore (Asm.assemble items);
     Alcotest.fail "branch out of range must be rejected"
   with Asm.Asm_error _ -> ());
  (* undefined label *)
  (try
     ignore (Asm.assemble [ Asm.j "nowhere" ]);
     Alcotest.fail "undefined label must be rejected"
   with Asm.Asm_error _ -> ());
  (* duplicate label *)
  try
    ignore (Asm.assemble [ Asm.label "x"; Asm.label "x" ]);
    Alcotest.fail "duplicate label must be rejected"
  with Asm.Asm_error _ -> ()

let test_asm_la () =
  let m =
    run_items
      Asm.(
        [
          la a0 "data";
          i (Insn.Load (LD, a1, a0, 0L));
          label "h";
          j "h";
          label "data";
          dword 0xFEEDFACECAFEBEEFL;
        ])
  in
  Alcotest.(check int64) "la + ld" 0xFEEDFACECAFEBEEFL
    (Arch_state.get_reg m.Iss.Interp.st Asm.a1)

let tests =
  [
    Alcotest.test_case "ROB order and squash" `Quick test_rob_order_and_squash;
    Alcotest.test_case "rename free list and rollback" `Quick
      test_rename_freelist_and_rollback;
    Alcotest.test_case "move-elimination refcounting" `Quick
      test_move_elimination_refcount;
    Alcotest.test_case "issue-queue AGE and PUBS policies" `Quick
      test_iq_policies;
    test_queues_match_lists;
    Alcotest.test_case "macro-op fusion patterns" `Quick test_fusion_patterns;
    Alcotest.test_case "assembler error reporting" `Quick test_asm_errors;
    Alcotest.test_case "assembler la/data" `Quick test_asm_la;
    QCheck_alcotest.to_alcotest li_roundtrip;
    Alcotest.test_case "reused ROB rows: no stale reference acts" `Quick
      test_reused_rows;
  ]
