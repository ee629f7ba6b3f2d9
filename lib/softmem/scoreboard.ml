(* The permission scoreboard of §III-B2b.

   Subscribes to the coherence event stream around one parent node and
   tracks, per data block, the permission each child is *entitled* to
   hold based on the Grants the parent issued and the Probe_acks /
   Releases the children returned.  Two rule families are checked:

   1. legal transactions: a child must acknowledge downgrades before
      conflicting grants appear;
   2. permission invariants: at most one child may hold Trunk, and a
      Trunk holder excludes any other holder.

   The injected skip-probe fault (Cache.bug_skip_probe) produces a
   Grant Trunk while a sibling still holds permissions, which this
   checker flags. *)

type violation = { v_cycle : int; v_addr : int64; v_msg : string }

(* Per block, the permission rank each child is entitled to, packed
   two bits per child index, in an open-addressing table (linear
   probing, backward-shift deletion) over two flat arrays.  A block
   every child has given up is deleted, so the table holds only the
   blocks some child holds now, not the run's footprint, and a
   LightSSS image carries it as two blocks rather than one per entry.
   An absent block reads as all Nothing. *)
type t = {
  node : string; (* parent node name, e.g. "l3" *)
  children : string array; (* child node names, by child index *)
  mutable keys : int array; (* block address, or [empty] *)
  mutable ranks : int array; (* packed ranks of [keys.(i)] *)
  mutable live : int;
  mutable violations : violation list;
  mutable checked : int;
}

let empty = -1

let create ~node ~children =
  if Array.length children > Sys.int_size / 2 then
    invalid_arg "Scoreboard.create: too many children";
  {
    node;
    children;
    keys = Array.make 256 empty;
    ranks = Array.make 256 0;
    live = 0;
    violations = [];
    checked = 0;
  }

let trunk = Perm.rank Perm.Trunk

let branch = Perm.rank Perm.Branch

let rank_of packed child = (packed lsr (2 * child)) land 3

let with_rank packed child r =
  packed land lnot (3 lsl (2 * child)) lor (r lsl (2 * child))

(* Blocks are 64-byte aligned: hash the block number. *)
let home keys key = ((key lsr 6) * 0x9E3779B1) land (Array.length keys - 1)

(* The slot holding [key], else the empty slot ending its probe run. *)
let slot keys key =
  let mask = Array.length keys - 1 in
  let i = ref (home keys key) in
  while keys.(!i) <> key && keys.(!i) <> empty do
    i := (!i + 1) land mask
  done;
  !i

let find t key =
  let i = slot t.keys key in
  if t.keys.(i) = key then t.ranks.(i) else 0

(* Empty slot [i], shifting back later entries of its probe run that
   would otherwise become unreachable. *)
let delete t i =
  let keys = t.keys and ranks = t.ranks in
  let mask = Array.length keys - 1 in
  let i = ref i and j = ref ((i + 1) land mask) in
  while keys.(!j) <> empty do
    let k = home keys keys.(!j) in
    let stays = if !i <= !j then !i < k && k <= !j else !i < k || k <= !j in
    if not stays then begin
      keys.(!i) <- keys.(!j);
      ranks.(!i) <- ranks.(!j);
      i := !j
    end;
    j := (!j + 1) land mask
  done;
  keys.(!i) <- empty;
  t.live <- t.live - 1

let rec store t key packed =
  let i = slot t.keys key in
  if t.keys.(i) = key then
    if packed = 0 then delete t i else t.ranks.(i) <- packed
  else if packed <> 0 then
    if 2 * (t.live + 1) > Array.length t.keys then begin
      let keys = t.keys and ranks = t.ranks in
      t.keys <- Array.make (2 * Array.length keys) empty;
      t.ranks <- Array.make (2 * Array.length keys) 0;
      t.live <- 0;
      Array.iteri (fun i k -> if k <> empty then store t k ranks.(i)) keys;
      store t key packed
    end
    else begin
      t.keys.(i) <- key;
      t.ranks.(i) <- packed;
      t.live <- t.live + 1
    end

let violate t ~cycle ~addr msg =
  t.violations <- { v_cycle = cycle; v_addr = addr; v_msg = msg } :: t.violations

let check_invariant t ~cycle ~addr packed =
  let trunks = ref 0 and holders = ref 0 in
  for child = 0 to Array.length t.children - 1 do
    let r = rank_of packed child in
    if r = trunk then incr trunks;
    if r <> 0 then incr holders
  done;
  if !trunks > 1 then
    violate t ~cycle ~addr (Printf.sprintf "%d children hold Trunk" !trunks);
  if !trunks = 1 && !holders > 1 then
    violate t ~cycle ~addr
      (Printf.sprintf
         "Trunk is held while %d other children also hold permissions"
         (!holders - 1))

(* The index of the (last) child named [name], or -1. *)
let child_index t name =
  let i = ref (Array.length t.children - 1) in
  while !i >= 0 && not (String.equal t.children.(!i) name) do
    decr i
  done;
  !i

(* Feed one coherence event (wire the whole SoC event stream here). *)
let observe (t : t) (ev : Event.t) =
  if ev.node = t.node then begin
    t.checked <- t.checked + 1;
    match ev.xact with
    | Perm.Grant want ->
        if ev.child >= 0 && ev.child < Array.length t.children then begin
          let key = Int64.to_int ev.addr in
          let packed = with_rank (find t key) ev.child (Perm.rank want) in
          store t key packed;
          check_invariant t ~cycle:ev.cycle ~addr:ev.addr packed
        end
    | Perm.Acquire _ | Perm.Probe _ | Perm.Probe_ack _ | Perm.Release -> ()
  end
  else begin
    let child = child_index t ev.node in
    if child >= 0 then begin
      t.checked <- t.checked + 1;
      let key = Int64.to_int ev.addr in
      match ev.xact with
      | Perm.Probe_ack Perm.Nothing | Perm.Release ->
          store t key (with_rank (find t key) child 0)
      | Perm.Probe_ack Perm.Branch ->
          let packed = find t key in
          if rank_of packed child > branch then
            store t key (with_rank packed child branch)
      | Perm.Probe_ack Perm.Trunk | Perm.Acquire _ | Perm.Grant _ | Perm.Probe _
        ->
          ()
    end
  end

let blocks_tracked t = t.live

let violations t = List.rev t.violations

let ok t = t.violations = []
