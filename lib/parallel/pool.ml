(* Worker track ids: 0 in the calling domain, 1..jobs in spawned workers.
   Domain-local, so nested pools reuse the same small id space rather than
   growing one per domain ever spawned. *)
let worker_key = Domain.DLS.new_key (fun () -> 0)
let worker_id () = Domain.DLS.get worker_key

let jobs_from_env ?(var = "FPGAPART_JOBS") () =
  match Sys.getenv_opt var with
  | None -> 1
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | _ -> 1)

let run_sequential n f =
  let results = Array.make n None in
  for i = 0 to n - 1 do
    results.(i) <- Some (f i)
  done;
  Array.map Option.get results

let run ?(chunk = 1) ~jobs n f =
  if n <= 0 then [||]
  else if jobs <= 1 || n <= 1 then run_sequential n f
  else begin
    let jobs = min jobs n in
    let chunk = max 1 chunk in
    let results = Array.make n None in
    let failures = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let lo = Atomic.fetch_and_add next chunk in
        if lo >= n then continue := false
        else
          for i = lo to min (lo + chunk) n - 1 do
            match f i with
            | v -> results.(i) <- Some v
            | exception e ->
                failures.(i) <- Some (e, Printexc.get_raw_backtrace ())
          done
      done
    in
    let domains =
      Array.init jobs (fun w ->
          Domain.spawn (fun () ->
              Domain.DLS.set worker_key (w + 1);
              worker ()))
    in
    Array.iter Domain.join domains;
    (* The join is the synchronisation point: after it, every slot written
       by a worker is visible here. Surface the failure the sequential
       loop would have hit first. *)
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      failures;
    Array.map Option.get results
  end
