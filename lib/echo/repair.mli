(** Iterative least-change repair (Echo, FASE'13).

    Searches for consistent instances at increasing relational
    distance from the original models: one shared SAT encoding, a
    totalizer over the change literals, and per-iteration cardinality
    assumptions [distance ≤ k] for k = 0, 1, 2, ... The first
    satisfiable bound yields a minimal repair; exhausting the total
    weight proves the target set cannot restore consistency (the
    situation §3 warns about for single-target updates). *)

type success = {
  repaired : (Mdl.Ident.t * Mdl.Model.t) list;
      (** full binding: targets replaced, others as given *)
  relational_distance : int;
  edit_distance : int;
  iterations : int;  (** number of solver calls *)
  stats : Telemetry.t;
      (** instrumentation roll-up for the run; for {!run_all} every
          returned repair carries the cumulative stats of the whole
          enumeration *)
}

type outcome =
  | Repaired of success
  | Cannot_restore
      (** no consistent instance exists within the bounded space for
          this target set *)

type 'a menu = {
  entries : 'a list;
      (** deduplicated and canonically sorted, at most [limit]; empty
          when no conformant instance exists within the cap *)
  levels : (int * int) list;
      (** [(distance bound, solver calls at that bound)] in search
          order *)
  rejected : int;
      (** instances that satisfied the encoding but failed
          conformance; blocked and skipped *)
}

val least_change :
  ?prefix:Sat.Lit.t list ->
  ?scope:Sat.Lit.t ->
  cap:int ->
  limit:int ->
  decode:(Relog.Instance.t -> ('a, string) result) ->
  models:('a -> (Mdl.Ident.t * Mdl.Model.t) list) ->
  Relog.Finder.t ->
  Sat.Cardinality.t ->
  ('a menu, string) result
(** The least-change ladder every serial repair runs: {!run},
    {!run_all} at [jobs = 1] and {!Incr.Session.rerepair}. For
    k = 0, 1, ..., [cap] it solves under
    [prefix @ at_most k @ [scope]], hands each instance to [decode]
    (before blocking it, so [decode] may still read the solver's
    model), blocks it ({!Relog.Finder.block}, scoped when [scope] is
    given) and keeps the [Ok] ones, until [limit] are kept or the
    level is exhausted. The first k that keeps any is the minimal
    distance: the menu is those entries, deduplicated and sorted on
    the canonical serialization of [models]. [Error] when
    [limit < 1]. *)

val run :
  ?max_distance:int ->
  ?jobs:int ->
  Space.t ->
  (outcome, string) result
(** [max_distance] caps the search (default: total weight of the
    space's change literals) — the cap also k-bounds the totalizer
    encoding. [Error] on internal decode failures. At [jobs = 1] this
    is {!least_change} with [limit = 1].

    [jobs] (default 1) parallelises the distance ladder: a window of
    levels above the proven floor is probed speculatively on worker
    domains, each on a {!Sat.Solver.clone} of the shared encoding.
    Both the worker count and the window width are [jobs] capped by
    the hardware core count (override: [MDQVTR_WORKERS]) — a probe
    that cannot overlap any other work in wall-clock is pure cost, it
    skips the incremental warm-up consecutive levels share.
    The committed relational distance is the exact minimum for every
    [jobs] value — minimality is decided by level, not arrival order;
    an UNSAT probe at level [l] retires all levels [<= l] at once.
    With several equally-minimal repairs the particular witness model
    may depend on the schedule; {!run_all} enumerates the full
    jobs-invariant set. *)

val run_all :
  ?max_distance:int ->
  ?limit:int ->
  ?jobs:int ->
  ?split_after:float ->
  Space.t ->
  (success list, string) result
(** All distinct minimal repairs (every consistent instance at the
    optimal distance), up to [limit] (default 16), in a canonical
    deterministic order (sorted on the serialized repair, independent
    of discovery order and of [jobs]). The empty list means
    consistency cannot be restored; [Error] when [limit < 1]. Every
    entry carries the whole run's [iterations] and [stats]. This
    realises the workflow the paper's §4 sketches for the
    multidirectional Echo: "when inconsistencies are found, [users]
    select which models are to be updated" — and here, also which of
    the equally-minimal repairs to take. At [jobs = 1] this is
    {!least_change}.

    With [jobs >= 2] the minimal distance is found by the parallel
    ladder of {!run} and the enumeration is sharded across workers by
    disjoint sign-pattern cubes over the first change literals, with
    purely clone-local blocking clauses, merged through the hash-set
    dedup. The sharding is adaptive: the per-cube cost is measured as
    cubes run, and a cube that has held its worker for more than
    [split_after] wall seconds (default 25ms) while another worker is
    starved is split in two — half goes back to the shared queue —
    so skewed initial partitions rebalance instead of serialising the
    tail. Splitting never changes the returned set (a split cube's
    halves cover exactly the cube). The returned set equals the
    serial one whenever the number of distinct minimal repairs is at
    most [limit] (each shard applies [limit] locally before the
    global cap, so an overfull result may select a different — still
    canonical-least — subset).

    Both [run] and [run_all] degrade [jobs] to 1 when called from
    inside a pool worker (a nested parallel region) rather than
    oversubscribe the cores the enclosing region already owns. *)
