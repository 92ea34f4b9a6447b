exception Cancelled

type token = {
  flag : bool Atomic.t;
  tmu : Mutex.t;
  mutable hooks : (unit -> unit) list;
  mutable fired : bool;
}

let make_token () =
  { flag = Atomic.make false; tmu = Mutex.create (); hooks = []; fired = false }

let cancelled tok = Atomic.get tok.flag

let run_hooks tok =
  let hooks =
    Mutex.lock tok.tmu;
    if tok.fired then (
      Mutex.unlock tok.tmu;
      [])
    else begin
      tok.fired <- true;
      let hs = tok.hooks in
      tok.hooks <- [];
      Mutex.unlock tok.tmu;
      hs
    end
  in
  List.iter (fun h -> try h () with _ -> ()) hooks

let cancel_token tok =
  Atomic.set tok.flag true;
  run_hooks tok

let on_cancel tok hook =
  Mutex.lock tok.tmu;
  if tok.fired then (
    Mutex.unlock tok.tmu;
    (try hook () with _ -> ()))
  else begin
    tok.hooks <- hook :: tok.hooks;
    Mutex.unlock tok.tmu
  end

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  fmu : Mutex.t;
  fcond : Condition.t;
  mutable st : 'a state;
  ftok : token;
}

let resolve fut st =
  Mutex.lock fut.fmu;
  (match fut.st with
  | Pending -> fut.st <- st
  | Done _ | Failed _ -> ());
  Condition.broadcast fut.fcond;
  Mutex.unlock fut.fmu

let result fut =
  Mutex.lock fut.fmu;
  let rec wait () =
    match fut.st with
    | Pending ->
      Condition.wait fut.fcond fut.fmu;
      wait ()
    | Done v -> Ok v
    | Failed e -> Error e
  in
  let r = wait () in
  Mutex.unlock fut.fmu;
  r

let await fut = match result fut with Ok v -> v | Error e -> raise e

let cancel fut = cancel_token fut.ftok

(* Each task carries the trace context of its submitter so spans opened
   inside the task attach to the submitting span even though they run
   (and render) on the worker's own domain track. *)
type task = Task : (token -> 'a) * 'a future * Obs.Trace.context -> task

type t = {
  njobs : int;
  mu : Mutex.t;
  nonempty : Condition.t;
  queue : task Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()
let jobs t = t.njobs

(* Worker domains mark themselves so the layers above can detect a
   nested parallel region: an enforcement call issued from inside a
   pool task (e.g. a ladder probe) must not fan out again
   — the extra domains would only oversubscribe the cores the outer
   region already owns, and nested blocking waits on the same global
   pool can stall behind their own parent. *)
let worker_flag = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get worker_flag

let run_task (Task (fn, fut, ctx)) =
  if cancelled fut.ftok then resolve fut (Failed Cancelled)
  else
    match Obs.Trace.with_context ctx (fun () -> fn fut.ftok) with
    | v -> resolve fut (Done v)
    | exception e -> resolve fut (Failed e)

let worker t =
  let rec loop () =
    Mutex.lock t.mu;
    let rec next () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if t.closed then None
      else begin
        Condition.wait t.nonempty t.mu;
        next ()
      end
    in
    let task = next () in
    Mutex.unlock t.mu;
    match task with
    | Some task ->
      run_task task;
      loop ()
    | None -> ()
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      njobs = jobs;
      mu = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [];
    }
  in
  if jobs > 1 then
    t.domains <-
      List.init jobs (fun _ ->
          Domain.spawn (fun () ->
              Domain.DLS.set worker_flag true;
              worker t));
  t

let submit t fn =
  let fut =
    { fmu = Mutex.create (); fcond = Condition.create (); st = Pending; ftok = make_token () }
  in
  let ctx = Obs.Trace.current () in
  if t.njobs = 1 then begin
    if t.closed then invalid_arg "Pool.submit: pool is shut down";
    run_task (Task (fn, fut, ctx))
  end
  else begin
    Mutex.lock t.mu;
    if t.closed then begin
      Mutex.unlock t.mu;
      invalid_arg "Pool.submit: pool is shut down"
    end;
    Queue.push (Task (fn, fut, ctx)) t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.mu
  end;
  fut

let map_list t fn xs =
  let futs = List.map (fun x -> submit t (fun tok -> fn tok x)) xs in
  let results = List.map result futs in
  List.map (function Ok v -> v | Error e -> raise e) results

let shutdown t =
  Mutex.lock t.mu;
  let ds = t.domains in
  t.closed <- true;
  t.domains <- [];
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mu;
  List.iter Domain.join ds

let with_pool ~jobs fn =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> fn t)

(* Process-global pool, grown on demand and reused across enforcement
   calls so repeated [Repair.run ~jobs] invocations don't each pay a
   domain spawn. Guarded by a mutex: concurrent growers are rare and
   cheap to serialise. *)
let global_mu = Mutex.create ()
let global_pool = ref None
let exit_hooked = ref false

let global ~jobs =
  if jobs < 1 then invalid_arg "Pool.global: jobs must be >= 1";
  Mutex.lock global_mu;
  let pool =
    match !global_pool with
    | Some p when p.njobs >= jobs -> p
    | prev ->
      (match prev with Some p -> shutdown p | None -> ());
      let p = create ~jobs in
      global_pool := Some p;
      if not !exit_hooked then begin
        exit_hooked := true;
        at_exit (fun () ->
            Mutex.lock global_mu;
            let p = !global_pool in
            global_pool := None;
            Mutex.unlock global_mu;
            match p with Some p -> shutdown p | None -> ())
      end;
      p
  in
  Mutex.unlock global_mu;
  pool
