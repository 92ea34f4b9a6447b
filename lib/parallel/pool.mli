(** A dependency-free domain pool: worker domains pulling thunks from a
    shared queue, with futures and cooperative cancellation.

    The pool is the multicore substrate of the enforcement engine
    ({!Echo.Repair} speculative distance probing and sharded
    enumeration) and of the transformation server, but carries no
    knowledge of any layer above it; any subsystem can submit work.

    Cancellation is cooperative: cancelling a future flips its token
    and runs the callbacks registered with {!on_cancel} (e.g.
    [Sat.Solver.interrupt] on the solver a task is driving). A task
    that never checks its token simply runs to completion and the
    cancelled future still resolves. *)

type t
(** A pool of worker domains. *)

type token
(** Per-task cancellation token, passed to every submitted task. *)

type 'a future
(** Handle on a submitted task's eventual result. *)

exception Cancelled
(** Raised by {!await} when the task was cancelled before (or instead
    of) producing a result. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    available to a pool. This is also the job count [--jobs 0]/auto
    resolves to in the CLI. *)

val in_worker : unit -> bool
(** [true] iff the calling domain is a pool worker (any pool). Layers
    that fan out ({!Echo.Repair}) consult this to
    degrade nested parallel regions to their serial path instead of
    oversubscribing cores already owned by the enclosing region —
    e.g. an [enforce ~jobs:4] issued from inside another pool task
    runs its ladder serially. Tasks run inline by a [jobs = 1] pool
    execute on the submitting domain and are not marked. *)

val create : jobs:int -> t
(** A pool with exactly [jobs] worker domains ([jobs >= 1]).
    With [jobs = 1] no domain is spawned: tasks run inline at
    {!submit} time on the calling domain (deterministic, zero
    overhead), which keeps [jobs = 1] paths identical to serial
    code. Raises [Invalid_argument] on [jobs < 1]. *)

val jobs : t -> int
(** Worker count the pool was created with. *)

val global : jobs:int -> t
(** A process-global pool with at least [jobs] workers, created (or
    grown, replacing the previous idle pool) on demand and reused
    across calls — callers that enforce repeatedly must not pay a
    domain spawn per call. The returned pool must not be
    {!shutdown} by the caller; it is drained at process exit. *)

val submit : t -> (token -> 'a) -> 'a future
(** Enqueue a task. The task receives its cancellation token and
    should poll {!cancelled} (or register {!on_cancel} hooks) at
    natural preemption points. Raises [Invalid_argument] on a pool
    that has been shut down.

    The submitter's {!Obs.Trace.current} context is captured here and
    installed around the task ({!Obs.Trace.with_context}), so spans the
    task opens attach to the submitting span while rendering on the
    worker domain's own trace track. *)

val await : 'a future -> 'a
(** Block until the task resolves; re-raises the task's exception
    ({!Cancelled} if it was cancelled before completing). *)

val result : 'a future -> ('a, exn) result
(** Like {!await} without re-raising. *)

val cancel : 'a future -> unit
(** Flip the future's token and run its {!on_cancel} hooks. The task
    itself decides when to stop; a task that has not started yet is
    dropped ({!await} raises {!Cancelled}). Idempotent. *)

val cancelled : token -> bool
(** Poll a token (cheap — one atomic load). *)

val on_cancel : token -> (unit -> unit) -> unit
(** Register a hook run exactly once when the token is cancelled
    (immediately, if it already is). Hooks must be fast, non-blocking
    and exception-free: they run on the cancelling domain. *)

val map_list : t -> (token -> 'a -> 'b) -> 'a list -> 'b list
(** Submit one task per element, await them all in order. If any task
    raised, every task is still awaited (no work leaks into the
    background), then the first exception (in list order) is
    re-raised. *)

val shutdown : t -> unit
(** Drain the queue, stop and join the workers. Idempotent. Only for
    pools obtained from {!create}; the {!global} pool shuts down at
    exit. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)
