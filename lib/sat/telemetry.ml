(* Thin shim over the shared monotonic clock: every phase of the stack
   keeps calling [Sat.Telemetry.now], but the readings can no longer go
   backwards under NTP steps. *)
let now = Obs.Clock.now

(* Lock-free float accumulation: floats have no fetch-and-add, so CAS
   until the addition lands. Contention is low (a handful of worker
   domains recording coarse spans). *)
let add_float cell dt =
  let rec go () =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (cur +. dt)) then go ()
  in
  go ()

type span = {
  span_seconds : float Atomic.t;
  span_events : int Atomic.t;
}

let span () = { span_seconds = Atomic.make 0.0; span_events = Atomic.make 0 }

let record sp dt =
  add_float sp.span_seconds dt;
  Atomic.incr sp.span_events

let timed sp f =
  (* Record even when [f] raises: interruption of a solve must not
     lose the time it burned. *)
  let t0 = now () in
  Fun.protect ~finally:(fun () -> record sp (now () -. t0)) f

let seconds sp = Atomic.get sp.span_seconds
let events sp = Atomic.get sp.span_events
