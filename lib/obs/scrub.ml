type mask = Stats | Log

let stats_suffixes = [ "_secs"; "_per_sec"; "_util" ]

let volatile mask k =
  let suffixes =
    match mask with Stats -> stats_suffixes | Log -> "_ms" :: stats_suffixes
  in
  List.exists (fun suffix -> String.ends_with ~suffix k) suffixes

(* Rebuild a document with every volatile field's value replaced by
   [on_volatile], or the field dropped when that is [None]. *)
let rec rewrite mask on_volatile = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if volatile mask k then Option.map (fun x -> (k, x)) on_volatile
             else Some (k, rewrite mask on_volatile v))
           fields)
  | Json.List items -> Json.List (List.map (rewrite mask on_volatile) items)
  | j -> j

let null_mask mask = rewrite mask (Some Json.Null)
let drop_volatile = rewrite Stats None

let rec sort_keys = function
  | Json.Obj fields ->
      Json.Obj
        (List.sort
           (fun (a, _) (b, _) -> String.compare a b)
           (List.map (fun (k, v) -> (k, sort_keys v)) fields))
  | Json.List items -> Json.List (List.map sort_keys items)
  | j -> j

let stable doc =
  let field k = Option.value (Json.member k doc) ~default:Json.Null in
  let fields k =
    match drop_volatile (field k) with Json.Obj f -> f | _ -> []
  in
  let obs = fields "obs" in
  let events =
    match List.assoc_opt "events" obs with
    | Some (Json.List l) -> l
    | _ -> []
  in
  let md5 =
    Digest.to_hex
      (Digest.string (Json.to_compact_string (sort_keys (Json.List events))))
  in
  Json.Obj
    [
      ("circuit", field "circuit");
      ("seed", field "seed");
      ("result", Json.Obj (fields "result"));
      ( "obs",
        Json.Obj
          (List.filter (fun (k, _) -> k <> "events") obs
          @ [
              ("events_md5", Json.String md5);
              ("events_len", Json.Int (List.length events));
            ]) );
    ]
