(* Unit-cost deficit round robin. Every job costs 1, so the classic
   byte-quantum DRR collapses to: a tenant at the head of the rotation
   holds a deficit recharged to its weight when its turn starts, spends
   1 per pop, and rotates to the back when the deficit is exhausted or
   its queue drains. *)

type 'a tenant_q = {
  weight : int;
  mutable deficit : int;
  mutable in_ring : bool;
  (* (priority, seq, item), sorted priority desc then seq asc; seq
     breaks ties FIFO. Caps are small (hundreds), so O(depth) insertion
     beats a heap on obviousness. *)
  mutable items : (int * int * 'a) list;
  mutable depth : int;
}

type 'a t = {
  cap : int;
  pinned : (string * int) list;
  tbl : (string, 'a tenant_q) Hashtbl.t;
  ring : string Queue.t;  (* active (non-empty) tenants, rotation order *)
  mutable total : int;
  mutable seq : int;
}

let valid_tenant tenant =
  let n = String.length tenant in
  n >= 1 && n <= 64

let check_weights weights =
  let rec go seen = function
    | [] -> Ok ()
    | (tenant, w) :: rest ->
        if not (valid_tenant tenant) then
          Error (Printf.sprintf "tenant %S must be 1..64 characters" tenant)
        else if w <= 0 then
          Error (Printf.sprintf "weight for %S must be positive" tenant)
        else if List.mem tenant seen then
          Error (Printf.sprintf "tenant %S is weighted twice" tenant)
        else go (tenant :: seen) rest
  in
  go [] weights

let create ?(weights = []) ~cap () =
  if cap <= 0 then invalid_arg "Fair_queue.create: cap must be positive";
  Result.iter_error
    (fun msg -> invalid_arg ("Fair_queue.create: " ^ msg))
    (check_weights weights);
  {
    cap;
    pinned = weights;
    tbl = Hashtbl.create 8;
    ring = Queue.create ();
    total = 0;
    seq = 0;
  }

let weight_for t tenant =
  Option.value (List.assoc_opt tenant t.pinned) ~default:1

let tenant_q t tenant =
  match Hashtbl.find_opt t.tbl tenant with
  | Some tq -> tq
  | None ->
      let tq =
        {
          weight = weight_for t tenant;
          deficit = 0;
          in_ring = false;
          items = [];
          depth = 0;
        }
      in
      Hashtbl.replace t.tbl tenant tq;
      tq

let push t ~tenant ~priority v =
  let tq = tenant_q t tenant in
  if tq.depth >= t.cap then Error (`Tenant_full tq.depth)
  else begin
    let seq = t.seq in
    t.seq <- seq + 1;
    let rec insert = function
      | [] -> [ (priority, seq, v) ]
      | ((p, _, _) as hd) :: tl when p >= priority -> hd :: insert tl
      | tl -> (priority, seq, v) :: tl
    in
    tq.items <- insert tq.items;
    tq.depth <- tq.depth + 1;
    t.total <- t.total + 1;
    if not tq.in_ring then begin
      (* Rejoining at the back with a fresh quantum: an idle tenant
         cannot barge into the turn in progress. *)
      tq.in_ring <- true;
      tq.deficit <- tq.weight;
      Queue.push tenant t.ring
    end;
    Ok ()
  end

let pop_item tq =
  match tq.items with
  | [] -> None
  | (_, _, v) :: tl ->
      tq.items <- tl;
      tq.depth <- tq.depth - 1;
      Some v

let rec pop t =
  if t.total = 0 then None
  else
    let tenant = Queue.peek t.ring in
    let tq = Hashtbl.find t.tbl tenant in
    if tq.depth = 0 then begin
      ignore (Queue.pop t.ring);
      tq.in_ring <- false;
      pop t
    end
    else if tq.deficit <= 0 then begin
      ignore (Queue.pop t.ring);
      Queue.push tenant t.ring;
      tq.deficit <- tq.weight;
      pop t
    end
    else begin
      tq.deficit <- tq.deficit - 1;
      let v = pop_item tq in
      t.total <- t.total - 1;
      if tq.depth = 0 then begin
        ignore (Queue.pop t.ring);
        tq.in_ring <- false
      end;
      v
    end

let length t = t.total

let depth t tenant =
  match Hashtbl.find_opt t.tbl tenant with Some tq -> tq.depth | None -> 0

let cap t = t.cap
let weight t tenant = weight_for t tenant

let tenants t =
  Hashtbl.fold (fun name tq acc -> (name, tq.depth) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let position t ~tenant pred =
  match Hashtbl.find_opt t.tbl tenant with
  | None -> None
  | Some tq ->
      let rec go i = function
        | [] -> None
        | (_, _, v) :: tl -> if pred v then Some i else go (i + 1) tl
      in
      go 0 tq.items

let drain t =
  let rec go acc =
    match pop t with None -> List.rev acc | Some v -> go (v :: acc)
  in
  go []
