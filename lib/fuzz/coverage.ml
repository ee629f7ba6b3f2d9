(* Microarchitectural coverage map (see coverage.mli).

   A cell is a named event class ("NH/flush.mispredict",
   "YQH/l1d.mshr_saturated", ...); its value is the deepest log2
   magnitude bucket ever observed for that event.  The per-event hot
   path is a plain counter field bumped in place -- this map only
   folds final counter snapshots, once per run, so the merge
   lattice (pointwise max over buckets) can afford a hashtable.

   The lattice makes merging commutative, associative and idempotent:
   pool workers can fold their runs in any order, a resumed campaign
   replays journal records into the same map, and the global points
   total is monotone over rounds by construction. *)

type t = (string, int) Hashtbl.t

let max_bucket = 8

(* floor(log2 v) + 1, capped: 1, 2-3, 4-7, ..., >=128 all land in
   buckets 1..8.  0 (event never fired) is "not covered". *)
let bucket v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x <> 0 && !b < max_bucket do
      incr b;
      x := !x lsr 1
    done;
    !b
  end

let create () : t = Hashtbl.create 512

let raise_to (t : t) cell level =
  if level > 0 then
    match Hashtbl.find_opt t cell with
    | Some l when l >= level -> ()
    | Some _ | None -> Hashtbl.replace t cell (min level max_bucket)

let note t cell v = raise_to t cell (bucket v)

let add_counters t ~axis counters =
  List.iter (fun (name, v) -> note t (axis ^ "/" ^ name) v) counters

let cells t = Hashtbl.length t

let points t = Hashtbl.fold (fun _ l acc -> acc + l) t 0

let merge_into ~into (src : t) = Hashtbl.iter (raise_to into) src

let to_alist t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun c l acc -> (c, l) :: acc) t [])

let equal a b = to_alist a = to_alist b

(* --- stable serialized form ------------------------------------------ *)

let magic = "MJCOV1"

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  List.iter
    (fun (c, l) ->
      Buffer.add_string buf c;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int l);
      Buffer.add_char buf '\n')
    (to_alist t);
  Buffer.contents buf

let of_string s : t option =
  match String.split_on_char '\n' s with
  | hdr :: lines when hdr = magic -> (
      let t = create () in
      try
        List.iter
          (fun line ->
            if line <> "" then
              match String.rindex_opt line ' ' with
              | Some i ->
                  let cell = String.sub line 0 i in
                  let level =
                    int_of_string
                      (String.sub line (i + 1) (String.length line - i - 1))
                  in
                  if cell = "" || level < 1 || level > max_bucket then
                    raise Exit;
                  raise_to t cell level
              | None -> raise Exit)
          lines;
        Some t
      with Exit | Failure _ -> None)
  | _ -> None
