(* The paged copy-on-write store behind memories and tables: snapshot,
   restore and release against a plain-array model, the shared initial
   page, and COW-fault accounting. *)

open Riscv

(* 3 pages of 512 slots and a partial one *)
let slots = 1600

let init = -7

(* One random program over a table: its [snapshot]s are numbered in
   the order taken; a restore or release names one by index (mod the
   count, ignored when there is none). *)
type op =
  | Set of int * int
  | Snapshot
  | Restore of int
  | Restore_detached of int
  | Release of int

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        (8, map2 (fun i v -> Set (i, v)) (int_bound (slots - 1)) int);
        (2, return Snapshot);
        (2, map (fun k -> Restore k) nat);
        (1, map (fun k -> Restore_detached k) nat);
        (1, map (fun k -> Release k) nat);
      ])

let show_op = function
  | Set (i, v) -> Printf.sprintf "set %d %d" i v
  | Snapshot -> "snapshot"
  | Restore k -> Printf.sprintf "restore %d" k
  | Restore_detached k -> Printf.sprintf "restore-detached %d" k
  | Release k -> Printf.sprintf "release %d" k

let same t model =
  let ok = ref true in
  Array.iteri (fun i v -> if Cow.get t i <> v then ok := false) model;
  !ok

(* Snapshots stay restorable until released, also into a detached
   copy; restoring one twice (with writes in between) gives the same
   contents; releasing every snapshot leaves no page shared. *)
let prop_model =
  QCheck2.Test.make ~count:300 ~name:"random set/snapshot/restore/release"
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck2.Gen.(list_size (int_range 1 80) gen_op)
    (fun ops ->
      let t = Cow.table ~slots ~init in
      let model = Array.make slots init in
      let snaps = ref [||] in
      let live () =
        List.filter_map
          (fun (s, m, released) -> if released then None else Some (s, m))
          (Array.to_list !snaps)
      in
      let pick k f =
        match live () with
        | [] -> ()
        | l -> f (List.nth l (k mod List.length l))
      in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Set (i, v) ->
              Cow.set t i v;
              model.(i) <- v
          | Snapshot ->
              snaps :=
                Array.append !snaps [| (Cow.snapshot t, Array.copy model, false) |]
          | Restore k ->
              pick k (fun (s, m) ->
                  Cow.restore t s;
                  Array.blit m 0 model 0 slots)
          | Restore_detached k ->
              (* the LightSSS path: marshal [t] with its pages
                 unhooked, restore the copy, write to it; [t] must not
                 see the write *)
              pick k (fun (s, m) ->
                  let d = Cow.detach t in
                  let image = Marshal.to_bytes t [] in
                  Cow.reattach t d;
                  let c : Cow.t = Marshal.from_bytes image 0 in
                  Cow.restore c s;
                  if not (same c m) then ok := false;
                  Cow.set c 0 (Cow.get c 0 + 1);
                  Cow.clear c)
          | Release k ->
              pick k (fun (s, _) ->
                  Cow.release s;
                  snaps :=
                    Array.map
                      (fun ((s', m, _) as e) ->
                        if s' == s then (s', m, true) else e)
                      !snaps));
          if not (same t model) then ok := false)
        ops;
      List.iter
        (fun (s, m) ->
          Cow.restore t s;
          if not (same t m) then ok := false)
        (live ());
      List.iter (fun (s, _) -> Cow.release s) (live ());
      !ok && Cow.shared_pages t = 0)

(* Every never-written page is the one initial page: after writes to
   every slot, restores, a clear and a write elsewhere, each slot of an
   unwritten page still reads the initial value. *)
let test_initial_page_never_written () =
  let t = Cow.table ~slots ~init in
  let s = Cow.snapshot t in
  for i = 0 to slots - 1 do
    Cow.set t i i
  done;
  Cow.restore t s;
  Cow.set t 3 99;
  Cow.clear t;
  Cow.set t 1000 5;
  Alcotest.(check int) "written slot" 5 (Cow.get t 1000);
  for i = 0 to slots - 1 do
    if i / 512 <> 1000 / 512 && Cow.get t i <> init then
      Alcotest.failf "slot %d of an unwritten page reads %d" i (Cow.get t i)
  done;
  Alcotest.(check int) "one page owned" 1 (Cow.allocated_pages t);
  Cow.release s

let test_fault_once_per_page () =
  let t = Cow.table ~slots ~init in
  let per_page = 512 in
  for p = 0 to 2 do
    Cow.set t (p * per_page) 1
  done;
  Alcotest.(check int) "three pages allocated" 3 (Cow.allocated_pages t);
  Cow.reset_stats t;
  let s = Cow.snapshot t in
  Alcotest.(check int) "all shared" 3 (Cow.shared_pages t);
  for p = 0 to 2 do
    for k = 0 to 9 do
      Cow.set t ((p * per_page) + k) k
    done
  done;
  (* the unwritten fourth page allocates; it is not a COW fault *)
  Cow.set t (3 * per_page) 1;
  let st = Cow.stats t in
  Alcotest.(check int) "one COW fault per shared page" 3 st.Cow.cow_faults;
  Alcotest.(check int) "one allocation" 1 st.Cow.pages_allocated;
  Alcotest.(check int) "nothing shared any more" 0 (Cow.shared_pages t);
  Cow.release s;
  Cow.reset_stats t;
  Cow.set t 0 2;
  Alcotest.(check int) "no fault after release" 0 (Cow.stats t).Cow.cow_faults

let test_snapshot_cost_is_owned_pages () =
  (* a 64 MB memory with two written pages snapshots two pages *)
  let m = Memory.create ~base:Platform.dram_base ~size:(64 lsl 20) () in
  Memory.write_u64 m Platform.dram_base 1L;
  Memory.write_u64 m (Int64.add Platform.dram_base 0x3F0_0000L) 2L;
  let store = Memory.store m in
  let s = Memory.snapshot m in
  Alcotest.(check int) "two pages owned" 2 (Cow.allocated_pages store);
  Alcotest.(check int) "two pages shared" 2 (Cow.shared_pages store);
  Memory.release_snapshot s

let tests =
  [
    QCheck_alcotest.to_alcotest prop_model;
    Alcotest.test_case "the initial page is never written" `Quick
      test_initial_page_never_written;
    Alcotest.test_case "a write after a snapshot faults once per page" `Quick
      test_fault_once_per_page;
    Alcotest.test_case "snapshot cost is O(owned pages)" `Quick
      test_snapshot_cost_is_owned_pages;
  ]
