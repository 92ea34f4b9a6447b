(** Wall-clock plumbing for the instrumentation layer.

    Every phase of the stack (translation, solving, repair) measures
    itself with these helpers so that {!Solver.stats},
    {!Relog.Translate.stats} and the Echo roll-up all report wall
    time on the same clock. *)

val now : unit -> float
(** Monotonic seconds (shim over {!Obs.Clock.now}); differences are
    immune to wall-clock adjustment. The origin is unspecified — use
    only for durations, never as an epoch timestamp. *)

type span
(** An accumulator of timed events: total seconds and event count.
    Domain-safe: the counters are atomics, so worker domains may
    record into one shared span concurrently. *)

val span : unit -> span
val record : span -> float -> unit

val timed : span -> (unit -> 'a) -> 'a
(** Runs [f], recording its wall time — also when [f] raises (an
    interrupted solve must not lose the time it burned). *)

val seconds : span -> float
val events : span -> int

val add_float : float Atomic.t -> float -> unit
(** Lock-free [cell <- cell + dt] via a CAS loop; shared by every
    float accumulator in the stack that domains update concurrently. *)
