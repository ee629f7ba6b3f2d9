(* Basic-block-vector collection (paper §III-D3: "it is easy to
   compute the Basic Block Vector in NEMU, since it is straightforward
   to collect information about instructions in an interpreter").

   Under profiling the NEMU fast engine folds no jumps, so every
   superblock ends in at most one control-flow edge, and the pc of the
   terminator that takes it identifies the basic block that just
   ended.  Each terminator pc owns one counter cell, which the engine
   resolves when it compiles the block; every entry ending at that pc
   shares it, and it survives flushes, evictions and recompiles.  An
   edge bumps its cell and compares instret with the interval
   boundary; no hashing.  At a boundary the cells hit in the interval
   are harvested into a sparse, normalised block-frequency vector. *)

type vector = (int64 * float) list (* block id -> normalised frequency *)

type cell = { pc : int64; mutable hits : int (* in this interval *) }

type t = {
  interval : int; (* instructions per interval *)
  cells : (int64, cell) Hashtbl.t; (* terminator pc -> its cell *)
  mutable touched : cell list; (* hit this interval, latest first *)
  counts : (int64, int) Hashtbl.t; (* a harvest's block counts *)
  mutable vectors : vector list; (* reverse order *)
  mutable last_boundary : int; (* instret at last boundary *)
}

let create ~interval =
  {
    interval;
    cells = Hashtbl.create 1024;
    touched = [];
    counts = Hashtbl.create 1024;
    vectors = [];
    last_boundary = 0;
  }

(* Close the interval.  The touched cells go into the reset [counts]
   table in first-touch order: colliding pcs share a bucket chain in
   insertion order, so this order fixes the fold's list order, which
   [Simpoint.project] sums in.  It is the order in which counting each
   edge straight into the table inserts the pcs, so the vectors are
   bit-identical to that (test_checkpoint's "BBV golden" cases). *)
let harvest (t : t) =
  List.iter
    (fun c ->
      Hashtbl.add t.counts c.pc c.hits;
      c.hits <- 0)
    (List.rev t.touched);
  t.touched <- [];
  let total = Hashtbl.fold (fun _ c acc -> acc + c) t.counts 0 in
  let v =
    Hashtbl.fold
      (fun pc c acc -> (pc, float_of_int c /. float_of_int total) :: acc)
      t.counts []
  in
  t.vectors <- v :: t.vectors;
  Hashtbl.reset t.counts

(* The routine a terminator at [pc] runs on every edge it takes. *)
let site (t : t) (m : Nemu.Mach.t) pc =
  let c =
    match Hashtbl.find_opt t.cells pc with
    | Some c -> c
    | None ->
        let c = { pc; hits = 0 } in
        Hashtbl.add t.cells pc c;
        c
  in
  fun () ->
    if c.hits = 0 then t.touched <- c :: t.touched;
    c.hits <- c.hits + 1;
    if m.Nemu.Mach.instret - t.last_boundary >= t.interval then begin
      t.last_boundary <- m.Nemu.Mach.instret;
      harvest t
    end

(* Attach to a NEMU fast engine: the engine's instret drives interval
   boundaries. *)
let attach (t : t) (engine : Nemu.Fast.t) =
  engine.Nemu.Fast.prof_on <- true;
  engine.Nemu.Fast.prof_site <- site t engine.Nemu.Fast.m;
  (* entries compiled before profiling was enabled fold unconditional
     jumps into their traces, hiding those edges, and have no sites;
     recompile them *)
  Nemu.Fast.flush engine

let finish (t : t) = if t.touched <> [] then harvest t

let vectors (t : t) : vector array = Array.of_list (List.rev t.vectors)
