(* perfbench: the repository benchmark.

   Three closed-loop workloads over the mdqvtr stack, one per way a
   user reaches consistency checking and least-change repair:

   - oneshot: what `qvtr check` then `qvtr enforce` do in-process, on a
     seeded corpus of spec/metamodel/model texts (jobs = 1);
   - edit_session: one Incr.Session driven by an editor loop of
     snapshot edit -> apply_edits -> recheck -> rerepair -> commit
     (jobs = 1);
   - serve_churn: the in-process Server.Engine at jobs = 2, two
     clients cycling through more sessions than max_live, so every
     visit revives its session from a snapshot.

   Every operation is checked against Featuremodel.Fm.consistent, a
   set-level oracle that does not touch the engine. Work per run is a
   fixed function of (seed, seconds), so the solver/translation counts
   of a run repeat exactly for a given seed; percentiles are exact
   nearest-rank values over this program's own samples, and every time
   is scaled to a reference machine speed (see "Machine speed").

   Usage:
     main.exe --workload W --seed N --seconds S --trace 0|1
              --state-dir DIR --metrics M,... [--trace-out FILE]

   The last stdout line is one JSON object with a bare value for each
   metric named by --metrics; perfbench/run.py passes the names listed
   in BENCHMARK.json and attaches their units from there. *)

module F = Featuremodel.Fm
module I = Mdl.Ident
module M = Obs.Metrics
module S = Incr.Session
module P = Server.Protocol
module E = Server.Engine

let now = Obs.Clock.now
let fail fmt = Printf.ksprintf failwith fmt
let ok_or what = function Ok x -> x | Error e -> fail "%s: %s" what e

(* ------------------------------------------------------------------ *)
(* JSON output with every digit of each float                          *)

type json =
  | Num of float
  | Int of int
  | Bool of bool
  | Str of string
  | Obj of (string * json) list

let rec emit b = function
  | Num f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Str s -> Buffer.add_string b (Obs.Json.to_string (Obs.Json.String s))
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        emit b (Str k);
        Buffer.add_char b ':';
        emit b v)
      kvs;
    Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 1024 in
  emit b j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Samples, oracle outcomes and exact percentiles                      *)

type tally = {
  mutable checks : float list;  (** seconds per check *)
  mutable repairs : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few oracle mismatches *)
}

let tally () = { checks = []; repairs = []; attempted = 0; failed = 0; failures = [] }

let note_failure t what =
  t.failed <- t.failed + 1;
  if List.length t.failures < 5 then t.failures <- what :: t.failures

(* One user operation. Its latency is a sample whatever the outcome;
   a wrong or failed answer also counts against goodput and fails the
   run. *)
let record t kind dt ok what =
  t.attempted <- t.attempted + 1;
  (match kind with
  | `Check -> t.checks <- dt :: t.checks
  | `Repair -> t.repairs <- dt :: t.repairs);
  if not ok then note_failure t what

(* Nearest-rank percentile [pct] (an integer percent) of [samples].
   Refuses when fewer than ten samples lie beyond it: such a value is
   one or two outliers, not a percentile. *)
let percentile name pct samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let rank = max 1 (((pct * n) + 99) / 100) in
  let beyond = n - rank in
  if beyond < 10 then
    fail "%s: %d samples leave %d beyond p%d; at least 10 are required" name n
      beyond pct;
  (a.(rank - 1), n, beyond)

(* ------------------------------------------------------------------ *)
(* Tracing: spans recorded by this program around its calls into each
   layer, kept in memory and written out at exit. Layer self time is
   exclusive: a layer call's wall time minus the translation, symmetry
   analysis and SAT time the program's own histograms saw inside it,
   which are credited to relog/sat instead.                            *)

type span = {
  sp_id : int;
  sp_parent : int;  (** 0: a root, caused by the workload loop itself *)
  sp_name : string;
  sp_t0 : float;
  mutable sp_t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_span = ref 0
let cur_parent = ref 0

let add_span ~parent name t0 t1 =
  incr next_span;
  let sp = { sp_id = !next_span; sp_parent = parent; sp_name = name; sp_t0 = t0; sp_t1 = t1 } in
  spans := sp :: !spans;
  sp

let with_span name f =
  if not !tracing then f ()
  else begin
    let sp = add_span ~parent:!cur_parent name (now ()) 0. in
    let saved = !cur_parent in
    cur_parent := sp.sp_id;
    Fun.protect
      ~finally:(fun () ->
        sp.sp_t1 <- now ();
        cur_parent := saved)
      f
  end

let layers : (string, float) Hashtbl.t = Hashtbl.create 32

let add_layer name v =
  Hashtbl.replace layers name
    (v +. Option.value ~default:0. (Hashtbl.find_opt layers name))

let layer_value name = Option.value ~default:0. (Hashtbl.find_opt layers name)
let hsum name = M.histogram_sum (M.histogram name)
let hcount name = M.histogram_count (M.histogram name)
let counter name = M.counter_value (M.counter name)

let inner_times () =
  (hsum "relog.translate_s", hsum "relog.symmetry.analysis_s", hsum "sat.solve_time_s")

let layer name f =
  if not !tracing then f ()
  else
    with_span name (fun () ->
        let tr0, sy0, sv0 = inner_times () in
        let t0 = now () in
        Fun.protect
          ~finally:(fun () ->
            let dt = now () -. t0 in
            let tr1, sy1, sv1 = inner_times () in
            let dtr = tr1 -. tr0 and dsy = sy1 -. sy0 and dsv = sv1 -. sv0 in
            add_layer name (dt -. dtr -. dsy -. dsv);
            add_layer (name ^ "#total") dt;
            add_layer "relog.translate_s" dtr;
            add_layer "relog.symmetry_s" dsy;
            add_layer "sat.solve_s" dsv)
          f)

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun sp ->
      output_string oc
        (json_to_string
           (Obj
              [
                ("id", Int sp.sp_id);
                ("cause", Int sp.sp_parent);
                ("name", Str sp.sp_name);
                ("start_s", Num sp.sp_t0);
                ("end_s", Num sp.sp_t1);
              ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Inputs: feature-model / configuration states as text                *)

let mm_text =
  Mdl.Serialize.metamodel_to_string F.fm_metamodel
  ^ "\n"
  ^ Mdl.Serialize.metamodel_to_string F.cf_metamodel

let spec_k2 = F.source ~k:2
let name_attr = I.make "name"
let mandatory_attr = I.make "mandatory"
let cf_key i = F.param_cf i

let models_text binding =
  String.concat "\n"
    (List.map (fun (_, m) -> Mdl.Serialize.model_to_string m) binding)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* The oracle: both top relations of the feature/configuration
   transformation as plain set arithmetic over the bound models. *)
let fm_consistent binding =
  let cfs =
    List.filter_map
      (fun (p, m) -> if I.equal p F.param_fm then None else Some m)
      binding
  in
  F.consistent ~cfs ~fm:(List.assoc F.param_fm binding)

let parse_inputs ~spec ~models_text =
  let trans = ok_or "parse" (Qvtr.Parser.parse spec) in
  let mms = ok_or "metamodels" (Mdl.Serialize.parse_metamodels mm_text) in
  let metamodels = List.map (fun mm -> (Mdl.Metamodel.name mm, mm)) mms in
  let models =
    List.map
      (fun m -> (Mdl.Model.name m, m))
      (ok_or "models" (Mdl.Serialize.parse_models mms models_text))
  in
  (match Qvtr.Typecheck.check trans ~metamodels with
  | Ok _ -> ()
  | Error _ -> fail "typecheck failed");
  (trans, metamodels, models)

(* ------------------------------------------------------------------ *)
(* Editor edits that keep repairs one population                       *)

(* A session state is k = 2 configurations of a fixed size over an
   n-feature model. Every edit renames one selected feature of one
   configuration (ids, sizes and the value universe never change, so
   nothing forces a re-encode), and each inconsistent edit needs
   exactly one mandatory flag flipped in fm to repair:
   - demote: a mandatory F is renamed to a feature no configuration
     selects; F leaves the intersection, so fm must make F optional;
   - promote: an optional F of one configuration is renamed to an
     optional G of the other; G joins the intersection, so fm must
     make G mandatory;
   - neutral: an optional F is renamed to a feature neither selects;
     the state stays consistent.
   The mandatory count is steered between 3 and 5 so both kinds stay
   available and the state never drifts. *)

type state = { cf1 : Mdl.Model.t; cf2 : Mdl.Model.t; fm : Mdl.Model.t }

let binding st = F.bind ~cfs:[ st.cf1; st.cf2 ] ~fm:st.fm

(* A consistent state over n features: [mandatory] of them mandatory,
   and each configuration selecting those plus its own [size -
   mandatory] optional ones; the seed only shuffles names and orders. *)
let initial_state rng ~n ~mandatory ~size =
  let pool = shuffle rng (List.init n (fun i -> Printf.sprintf "F%d" (i + 1))) in
  let mand = List.filteri (fun i _ -> i < mandatory) pool in
  let opt = List.filteri (fun i _ -> i >= mandatory) pool in
  let extra = size - mandatory in
  let o1 = List.filteri (fun i _ -> i < extra) opt in
  let o2 = List.filteri (fun i _ -> i >= extra && i < 2 * extra) opt in
  {
    cf1 = F.configuration ~name:"cf1" (shuffle rng (mand @ o1));
    cf2 = F.configuration ~name:"cf2" (shuffle rng (mand @ o2));
    fm = F.feature_model ~name:"fm" (List.map (fun f -> (f, List.mem f mand)) pool);
  }

let cf_of st i = if i = 1 then st.cf1 else st.cf2
let with_cf st i cf = if i = 1 then { st with cf1 = cf } else { st with cf2 = cf }

let rename cf ~from ~into =
  let id =
    List.find
      (fun id -> Mdl.Model.get_attr1 cf id name_attr = Some (Mdl.Value.Str from))
      (Mdl.Model.objects cf)
  in
  Mdl.Model.set_attr1 cf id name_attr (Mdl.Value.Str into)

let flip_flag fm feature =
  let id =
    List.find
      (fun id -> Mdl.Model.get_attr1 fm id name_attr = Some (Mdl.Value.Str feature))
      (Mdl.Model.objects fm)
  in
  let cur = Mdl.Model.get_attr1 fm id mandatory_attr = Some (Mdl.Value.Bool true) in
  Mdl.Model.set_attr1 fm id mandatory_attr (Mdl.Value.Bool (not cur))

type edit = {
  e_cf : int;  (** which configuration the rename touches *)
  e_after : state;  (** the models right after the edit *)
  e_repaired : state option;  (** [None]: the edit keeps consistency *)
}

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

let edit rng st kind =
  let all = List.map fst (F.fm_features st.fm) in
  let mand = List.filter_map (fun (f, m) -> if m then Some f else None) (F.fm_features st.fm) in
  let try_cf i =
    let mine = F.cf_features (cf_of st i) and theirs = F.cf_features (cf_of st (3 - i)) in
    let unused = List.filter (fun f -> not (List.mem f mine || List.mem f theirs)) all in
    let my_opt = List.filter (fun f -> not (List.mem f mand)) mine in
    let their_opt =
      List.filter (fun f -> not (List.mem f mand || List.mem f mine)) theirs
    in
    let renamed from into = with_cf st i (rename (cf_of st i) ~from ~into) in
    match kind with
    | `Demote -> (
      match (pick rng mand, pick rng unused) with
      | Some f, Some g ->
        let after = renamed f g in
        Some { e_cf = i; e_after = after; e_repaired = Some { after with fm = flip_flag st.fm f } }
      | _ -> None)
    | `Promote -> (
      match (pick rng my_opt, pick rng their_opt) with
      | Some f, Some g ->
        let after = renamed f g in
        Some { e_cf = i; e_after = after; e_repaired = Some { after with fm = flip_flag st.fm g } }
      | _ -> None)
    | `Neutral -> (
      match (pick rng my_opt, pick rng unused) with
      | Some f, Some g -> Some { e_cf = i; e_after = renamed f g; e_repaired = None }
      | _ -> None)
  in
  let first = 1 + Random.State.int rng 2 in
  match try_cf first with
  | Some e -> e
  | None -> (
    match try_cf (3 - first) with
    | Some e -> e
    | None -> fail "no feasible edit in this state")

(* The next inconsistent edit, steering the mandatory count. *)
let breaking_edit rng st =
  let m = List.length (List.filter snd (F.fm_features st.fm)) in
  let kind =
    if m <= 3 then `Promote
    else if m >= 5 then `Demote
    else if Random.State.bool rng then `Promote
    else `Demote
  in
  edit rng st kind

(* ------------------------------------------------------------------ *)
(* Counters read as deltas over a measured phase: the work counts of
   the determinism check and the per-layer counts.                     *)

let work_counters =
  [ "sat.conflicts"; "sat.propagations"; "relog.formulas_translated";
    "incr.rebuilds"; "echo.repair.iterations"; "server.sessions_revived";
    "sat.solves"; "relog.memo_hits"; "relog.memo_misses";
    "incr.translation_cache_hits"; "incr.translation_cache_misses";
    "server.edits_coalesced" ]

let snapshot_counters () = List.map (fun n -> (n, counter n)) work_counters
let counter_deltas before = List.map (fun (n, v) -> (n, counter n - v)) before

(* Histogram figures the per-layer metrics read as deltas. *)
let verbs = [ "open"; "apply_edits"; "recheck"; "rerepair"; "commit"; "snapshot"; "close"; "stats" ]

let hist_names =
  [ "relog.translate_s"; "relog.symmetry.analysis_s"; "sat.solve_time_s";
    "server.recheck.warm_s"; "server.recheck.scratch_s" ]
  @ List.concat_map
      (fun v -> [ "server.queue_wait." ^ v ^ "_s"; "server.service." ^ v ^ "_s" ])
      verbs

let snapshot_hists () = List.map (fun n -> (n, (hsum n, hcount n))) hist_names

let hist_deltas before =
  List.map (fun (n, (s0, c0)) -> (n, (hsum n -. s0, hcount n - c0))) before

(* ------------------------------------------------------------------ *)
(* Phase results                                                       *)

type phase = {
  ph_wall : float;  (** measured-phase wall seconds *)
  ph_tally : tally;
  ph_counts : (string * int) list;
  ph_hists : (string * (float * int)) list;  (** (sum, count) deltas over the phase *)
}

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Machine speed                                                       *)

(* The speed of a shared host drifts by tens of percent over minutes,
   and identical work then takes that much longer. So a jobs = 1 run
   also times a fixed reference computation, allocation-heavy like the
   engine (balanced-tree inserts and a list sort, none of it the
   engine's code): every [speed_every] operations of its measured
   phase, and [speed_burst] times between repetitions. Every time a
   repetition measures is scaled by [reference_s] over the median of
   its own reference times and the bursts on either side of it: the
   seconds the work would have taken at the reference speed. A change
   to the program moves the scaled figures as it moves the raw ones; a
   slower or faster host moves the reference time with them. The
   reference runs are left out of every wall and latency. serve_churn
   is not scaled (see [run]). *)
module IM = Map.Make (Int)

let reference_work () =
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 3 do
    let m = ref IM.empty in
    for i = 1 to 2000 do
      m := IM.add (Random.State.int rng 1_000_000) i !m
    done;
    let l = List.sort compare (List.init 2000 (fun i -> i * 7919 mod 2000)) in
    ignore (Sys.opaque_identity (!m, l))
  done

let reference_s = 0.0023
let speed_every = 4
let speed_burst = 20
let speed_log : float list ref = ref []
let speed_spent = ref 0.

let time_reference () =
  let t0 = now () in
  reference_work ();
  now () -. t0

let speed_sample () =
  let dt = time_reference () in
  speed_log := dt :: !speed_log;
  speed_spent := !speed_spent +. dt

(* A burst of reference runs between repetitions, on a heap where what
   the previous repetition left has been collected (a process that ran
   only one repetition would not pay for it), so that every burst sees
   the same heap. *)
let speed_samples () =
  Gc.full_major ();
  List.init speed_burst (fun _ -> time_reference ())

(* ------------------------------------------------------------------ *)
(* Workload 1: oneshot                                                 *)

type kind = Consistent | Shallow | Deep

type case = {
  c_kind : kind;
  c_models_text : string;
  c_models : (I.t * Mdl.Model.t) list;  (** the generator's own copy *)
  c_targets : string list;
  c_slack : int;
}

let deep_new = 2 (* m: new mandatory features of a deep case *)
let deep_pool = 5

(* Consistent states are larger (the evaluator's work); shallow cases
   are one Gen perturbation of a small state (translation-heavy
   repairs); deep cases add m mandatory features every configuration
   lacks, a distance-4m repair (SAT-heavy). Sizes, proportions and
   perturbation kinds follow a fixed schedule indexed by position, so
   every seed draws the same mix; the seed picks names, orders, the
   perturbed features and the order of the corpus. *)
let fixed_state rng ~n =
  let m = n / 3 in
  let st = initial_state rng ~n ~mandatory:m ~size:(m + ((n - m) / 3)) in
  ([ st.cf1; st.cf2 ], st.fm)

let make_case rng kind j =
  match kind with
  | Consistent ->
    let cfs, fm = fixed_state rng ~n:(20 + (j * 7 mod 21)) in
    let b = F.bind ~cfs ~fm in
    { c_kind = kind; c_models_text = models_text b; c_models = b; c_targets = []; c_slack = 2 }
  | Shallow ->
    let cfs, fm = fixed_state rng ~n:(5 + (j / 4 mod 3)) in
    let named pick = List.filter_map (fun (f, m) -> if m = pick then Some f else None) (F.fm_features fm) in
    let any l = List.nth l (Random.State.int rng (List.length l)) in
    let p =
      match j mod 4 with
      | 0 -> Featuremodel.Gen.Add_mandatory_to_fm "X1"
      | 1 -> Featuremodel.Gen.Select_unknown { cf_index = Random.State.int rng 2; feature = "X1" }
      | 2 -> Featuremodel.Gen.Select_everywhere (any (named false))
      | _ -> Featuremodel.Gen.Drop_selection { cf_index = Random.State.int rng 2; feature = any (named true) }
    in
    let cfs, fm = Featuremodel.Gen.apply_perturbation (cfs, fm) p in
    let b = F.bind ~cfs ~fm in
    { c_kind = kind; c_models_text = models_text b; c_models = b;
      c_targets = [ "cf1"; "cf2"; "fm" ]; c_slack = 2 }
  | Deep ->
    (* one fixed shape: its SAT cost swings threefold with the object
       order, and the repair p90 is the middle of this population *)
    let pool = Featuremodel.Gen.feature_names deep_pool in
    let cf name = F.configuration ~name pool in
    let fm =
      F.feature_model ~name:"fm"
        (List.map (fun f -> (f, true)) pool
        @ List.init deep_new (fun i -> (Printf.sprintf "N%d" (i + 1), true)))
    in
    let b = F.bind ~cfs:[ cf "cf1"; cf "cf2" ] ~fm in
    { c_kind = kind; c_models_text = models_text b; c_models = b;
      c_targets = [ "cf1"; "cf2" ]; c_slack = deep_new }

(* One block of 50 operations: 35 consistent, 12 shallow, 3 deep. So
   30% of operations repair and 20% of repairs are deep: the repair
   p90 sits inside the deep population, the repair p50 inside the
   shallow one, and check p50/p90 inside the consistent population
   (70% of checks), each at least ten percentage points from a
   population boundary. *)
let block = List.init 35 (fun _ -> Consistent) @ List.init 12 (fun _ -> Shallow) @ List.init 3 (fun _ -> Deep)

let corpus rng ~blocks =
  let counters = Hashtbl.create 3 in
  let kinds = List.concat (List.init blocks (fun _ -> block)) in
  List.map
    (fun kind ->
      let j = Option.value ~default:0 (Hashtbl.find_opt counters kind) in
      Hashtbl.replace counters kind (j + 1);
      make_case rng kind j)
    (shuffle rng kinds)

let repaired_ok c models distance =
  fm_consistent models
  && (c.c_kind <> Deep || distance = 4 * deep_new)

let oneshot_op t c =
  let t0 = now () in
  let trans, metamodels, models =
    layer "qvtr.parse_s" (fun () -> parse_inputs ~spec:spec_k2 ~models_text:c.c_models_text)
  in
  let report =
    ok_or "check" (layer "qvtr.eval_s" (fun () -> Qvtr.Check.run trans ~metamodels ~models))
  in
  let dt = now () -. t0 in
  let expected = fm_consistent c.c_models in
  record t `Check dt (report.Qvtr.Check.consistent = expected) "oneshot check verdict";
  if not report.Qvtr.Check.consistent then begin
    let targets = Echo.Target.of_list c.c_targets in
    let t1 = now () in
    let result =
      if !tracing then
        (* the three calls Echo.Engine.enforce makes, timed apart *)
        let _ =
          ok_or "check" (layer "qvtr.eval_s" (fun () -> Qvtr.Check.run trans ~metamodels ~models))
        in
        let space =
          ok_or "space"
            (layer "qvtr.encode_s" (fun () ->
                 Echo.Space.build ~slack_objects:c.c_slack ~transformation:trans
                   ~metamodels ~models ~targets ()))
        in
        match ok_or "repair" (layer "echo.repair_s" (fun () -> Echo.Repair.run ~jobs:1 space)) with
        | Echo.Repair.Repaired r -> Some (r.Echo.Repair.repaired, r.Echo.Repair.relational_distance)
        | Echo.Repair.Cannot_restore -> None
      else
        match
          ok_or "enforce"
            (Echo.Engine.enforce ~slack_objects:c.c_slack ~jobs:1 trans ~metamodels ~models ~targets)
        with
        | Echo.Engine.Enforced r -> Some (r.Echo.Engine.repaired, r.Echo.Engine.relational_distance)
        | Echo.Engine.Already_consistent | Echo.Engine.Cannot_restore -> None
    in
    let dt = now () -. t1 in
    let good =
      match result with Some (models, d) -> repaired_ok c models d | None -> false
    in
    record t `Repair dt good "oneshot repair"
  end

(* Blocks per repetition of the plan (three repetitions per run). *)
let oneshot_blocks seconds = max 7 (seconds / 3)

let oneshot_setup ~seed ~seconds =
  (* A deep case first, before any seeded input: identifiers are
     interned on first use and their order fixes the SAT variable
     order, so this makes the deep cases' search the same for every
     seed. *)
  oneshot_op (tally ()) (make_case (Random.State.make [| 0 |]) Deep 0);
  let rng = Random.State.make [| seed; 1 |] in
  let cases = corpus rng ~blocks:(oneshot_blocks seconds) in
  (* warm-up: one more block, from another stream *)
  let warm = corpus (Random.State.make [| seed; 2 |]) ~blocks:1 in
  let t = tally () in
  List.iter (oneshot_op t) warm;
  if t.failed > 0 then fail "oneshot warm-up: %s" (String.concat "; " t.failures);
  cases

let oneshot_measure cases =
  let t = tally () in
  let counts = snapshot_counters () and hists = snapshot_hists () in
  let spent = !speed_spent in
  let t0 = now () in
  List.iteri
    (fun i c ->
      if i mod speed_every = 0 then speed_sample ();
      with_span "op" (fun () -> oneshot_op t c))
    cases;
  let wall = now () -. t0 -. (!speed_spent -. spent) in
  { ph_wall = wall; ph_tally = t; ph_counts = counter_deltas counts; ph_hists = hist_deltas hists }

(* ------------------------------------------------------------------ *)
(* Workload 2: edit_session                                            *)

let session_features = 12
let session_size = 7

(* Cycles of the editor loop per repetition; each is one check and one
   repair, so 100+ repairs leave ten samples beyond the repair p90. *)
let session_cycles seconds = max 150 (20 * seconds)
let session_warmup = 40

(* One editor cycle: a seeded snapshot edit diffed with Mdl.Diff,
   apply_edits + recheck (the check), then rerepair (the repair) and a
   commit of the first menu entry. Returns the state after commit. *)
let editor_cycle t sess rng st =
  let e = breaking_edit rng st in
  let key = cf_key e.e_cf in
  let t0 = now () in
  let script = Mdl.Diff.script (cf_of st e.e_cf) (cf_of e.e_after e.e_cf) in
  ok_or "apply_edits" (layer "incr.apply_edits_s" (fun () -> S.apply_edits sess [ (key, script) ]));
  let report = ok_or "recheck" (layer "incr.recheck_s" (fun () -> S.recheck sess)) in
  let dt = now () -. t0 in
  record t `Check dt (report.S.consistent = fm_consistent (binding e.e_after)) "session recheck verdict";
  let expected = Option.get e.e_repaired in
  let t1 = now () in
  let rep = ok_or "rerepair" (layer "incr.rerepair_s" (fun () -> S.rerepair ~limit:2 sess)) in
  let dt = now () -. t1 in
  match rep.S.outcome with
  | S.Repaired (r :: _) ->
    let fm = List.assoc F.param_fm r.S.r_models in
    let good =
      r.S.r_relational_distance = 2
      && F.fm_features fm = F.fm_features expected.fm
      && fm_consistent r.S.r_models
    in
    record t `Repair dt good "session repair";
    ok_or "commit" (layer "incr.commit_s" (fun () -> S.commit sess r));
    expected
  | _ ->
    record t `Repair dt false "session repair: no menu";
    fail "edit_session: repair menu empty"

let session_setup ~seed =
  let st =
    initial_state (Random.State.make [| seed; 3 |]) ~n:session_features ~mandatory:4
      ~size:session_size
  in
  let trans, metamodels, models =
    parse_inputs ~spec:spec_k2 ~models_text:(models_text (binding st))
  in
  (* No edit or repair of this loop creates an object (renames and
     flag flips only), so the session carries no slack or headroom
     atoms; an object creation would force a re-encode, which the
     determinism check would see in incr.rebuilds. *)
  let sess =
    ok_or "open_session"
      (S.open_session ~slack_budget:0 ~headroom:0 ~transformation:trans ~metamodels ~models
         ~targets:(Echo.Target.of_list [ "fm" ]) ())
  in
  let first = ok_or "recheck" (S.recheck sess) in
  if not first.S.consistent then fail "edit_session: initial state inconsistent";
  let t = tally () in
  let rng = Random.State.make [| seed; 4 |] in
  let st = ref st in
  for _ = 1 to session_warmup do
    st := editor_cycle t sess rng !st
  done;
  if t.failed > 0 then fail "edit_session warm-up: %s" (String.concat "; " t.failures);
  (sess, !st)

let session_measure ~seed ~seconds (sess, st) =
  let t = tally () in
  let rng = Random.State.make [| seed; 5 |] in
  let counts = snapshot_counters () and hists = snapshot_hists () in
  let st = ref st in
  let spent = !speed_spent in
  let t0 = now () in
  for i = 1 to session_cycles seconds do
    if i mod speed_every = 0 then speed_sample ();
    st := with_span "cycle" (fun () -> editor_cycle t sess rng !st)
  done;
  let wall = now () -. t0 -. (!speed_spent -. spent) in
  { ph_wall = wall; ph_tally = t; ph_counts = counter_deltas counts; ph_hists = hist_deltas hists }

(* ------------------------------------------------------------------ *)
(* Workload 3: serve_churn                                             *)

let churn_features = 10
let churn_size = 6
let churn_jobs = 2
let churn_clients = 2

(* Each client cycles through [churn_per_client] sessions and at most
   [churn_max_live] sessions stay live. A visit submits all its frames
   at once, so its session always has queued work until the visit's
   last reply and is never an eviction candidate mid-visit; with
   max_live = 2 and three or more sessions per client, each session
   is evicted before its next visit whatever the interleaving. So
   every visit revives exactly once, and the count is asserted. *)
let churn_per_client = 4
let churn_max_live = 2
let churn_warm_cycles = 3
let churn_visits seconds = max 26 (2 * seconds)

type churn_session = {
  cs_name : string;
  mutable cs_state : state;
  cs_rng : Random.State.t;
}

type expect =
  | X_applied
  | X_checked of bool
  | X_repaired of state
  | X_committed

type role = R_edit | R_check of int | R_repair of int | R_commit of int

type frame = { fr_req : P.request; fr_expect : expect; fr_role : role }

let churn_spec st =
  {
    P.o_transformation = spec_k2;
    o_metamodels = mm_text;
    o_models = models_text (binding st);
    o_targets = [ "fm" ];
    o_standard = false;
    o_slack = 2;
    o_headroom = 6;
  }

let edit_frame st i =
  { fr_req = P.Apply_edits { models = Mdl.Serialize.model_to_string (cf_of st i) };
    fr_expect = X_applied; fr_role = R_edit }

(* A visit: a burst of 2-3 apply_edits frames (the last one breaking
   consistency) that queue and coalesce, recheck, rerepair, commit,
   then [churn_warm_cycles] cycles of edit, recheck, rerepair, commit.
   The repaired state is known in advance (one flag flip), which is
   what lets the client pipeline the whole visit. *)
let visit_frames cs =
  let rng = cs.cs_rng in
  let burst = 2 + Random.State.int rng 2 in
  let st = ref cs.cs_state in
  let frames = ref [] in
  let push f = frames := f :: !frames in
  for _ = 1 to burst - 1 do
    let e = edit rng !st `Neutral in
    st := e.e_after;
    push (edit_frame !st e.e_cf)
  done;
  let cycle c =
    let e = breaking_edit rng !st in
    push (edit_frame e.e_after e.e_cf);
    let repaired = Option.get e.e_repaired in
    push { fr_req = P.Recheck { blame = false }; fr_expect = X_checked false; fr_role = R_check c };
    push { fr_req = P.Rerepair { limit = 2 }; fr_expect = X_repaired repaired; fr_role = R_repair c };
    push { fr_req = P.Commit { choice = 0 }; fr_expect = X_committed; fr_role = R_commit c };
    st := repaired
  in
  for c = 0 to churn_warm_cycles do
    cycle c
  done;
  cs.cs_state <- !st;
  Array.of_list (List.rev !frames)

let reply_ok expect (resp : P.resp) =
  match (expect, resp.P.s_result) with
  | X_applied, Ok (P.Applied _) -> true
  | X_checked c, Ok (P.Checked { consistent; _ }) -> consistent = c
  | X_repaired st, Ok (P.Repaired { outcome = "repaired"; menu = m :: _; _ }) -> (
    m.P.m_relational_distance = 2
    &&
    match List.assoc_opt "fm" m.P.m_models with
    | None -> false
    | Some text -> (
      match Mdl.Serialize.parse_model F.fm_metamodel text with
      | Error _ -> false
      | Ok fm ->
        F.fm_features fm = F.fm_features st.fm
        && fm_consistent (binding { st with fm })))
  | X_committed, Ok P.Committed -> true
  | _ -> false

type churn = {
  ch_engine : E.t;
  ch_dir : string;
  ch_sessions : churn_session array array;  (** [client].(i) *)
  ch_reqlog : Server.Reqlog.t;
}

let next_id = ref 0

let call engine session req =
  incr next_id;
  (E.call engine { P.q_id = !next_id; q_session = session; q_req = req }).P.s_result

(* Cold start: open every session and run its first (scratch) recheck,
   in an order that leaves each client's first sessions evicted. *)
let churn_setup ~seed ~state_dir ~index =
  let dir = Filename.concat state_dir (Printf.sprintf "snap-%d-%d" (Unix.getpid ()) index) in
  let reqlog = Server.Reqlog.create () in
  let engine =
    E.create ~jobs:churn_jobs ~max_live:churn_max_live ~snapshot_dir:dir ~reqlog ()
  in
  let sessions =
    Array.init churn_clients (fun c ->
        Array.init churn_per_client (fun i ->
            let rng = Random.State.make [| seed; 6; c; i |] in
            let st = initial_state rng ~n:churn_features ~mandatory:4 ~size:churn_size in
            { cs_name = Printf.sprintf "c%d-s%d" c i; cs_state = st; cs_rng = rng }))
  in
  for i = 0 to churn_per_client - 1 do
    for c = 0 to churn_clients - 1 do
      let cs = sessions.(c).(i) in
      (match call engine cs.cs_name (P.Open (churn_spec cs.cs_state)) with
      | Ok (P.Opened _) -> ()
      | Ok _ -> fail "open: unexpected reply"
      | Error e -> fail "open: %s" e);
      match call engine cs.cs_name (P.Recheck { blame = false }) with
      | Ok (P.Checked { consistent = true; _ }) -> ()
      | _ -> fail "serve_churn: cold recheck of %s not consistent" cs.cs_name
    done
  done;
  { ch_engine = engine; ch_dir = dir; ch_sessions = sessions; ch_reqlog = reqlog }

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Replies arrive on pool workers and are stamped there; the main
   thread runs both clients' state machines. *)
let churn_measure ~seconds ch =
  let t = tally () in
  let mu = Mutex.create () and cond = Condition.create () in
  let inbox = Queue.create () in
  let counts = snapshot_counters () and hists = snapshot_hists () in
  let served0 = E.frames_served ch.ch_engine in
  let visits_per_client = churn_visits seconds / churn_clients in
  let submitted = ref 0 in
  let exchanged = ref [] in
  (* per client: current visit's frames, reply stamps, submit time *)
  let cur = Array.make churn_clients [||] in
  let stamps = Array.make churn_clients [||] in
  let replies = Array.make churn_clients [||] in
  let started = Array.make churn_clients 0. in
  let client_span = Array.make churn_clients None in
  let visit_span = Array.make churn_clients None in
  let done_visits = Array.make churn_clients 0 in
  let pending = Array.init churn_clients (fun _ -> Atomic.make 0) in
  let start_visit c =
    let cs = ch.ch_sessions.(c).(done_visits.(c) mod churn_per_client) in
    let frames = visit_frames cs in
    cur.(c) <- frames;
    stamps.(c) <- Array.make (Array.length frames) 0.;
    replies.(c) <- Array.make (Array.length frames) None;
    Atomic.set pending.(c) (Array.length frames);
    started.(c) <- now ();
    Option.iter
      (fun client -> visit_span.(c) <- Some (add_span ~parent:client.sp_id "visit" started.(c) 0.))
      client_span.(c);
    Array.iteri
      (fun k fr ->
        incr next_id;
        incr submitted;
        let req = { P.q_id = !next_id; q_session = cs.cs_name; q_req = fr.fr_req } in
        if !tracing then exchanged := `Req req :: !exchanged;
        (* each callback fills its own cells; the last one of the
           visit wakes the main thread, which sleeps meanwhile so it
           does not compete with the two workers for the two cores *)
        E.submit ch.ch_engine req (fun resp ->
            stamps.(c).(k) <- now ();
            replies.(c).(k) <- Some resp;
            if Atomic.fetch_and_add pending.(c) (-1) = 1 then begin
              Mutex.lock mu;
              Queue.push c inbox;
              Condition.signal cond;
              Mutex.unlock mu
            end))
      frames
  in
  let finish_visit c =
    let frames = cur.(c) and at = stamps.(c) in
    (* one span per frame, from submission to reply, caused by its
       visit *)
    Option.iter
      (fun visit ->
        visit.sp_t1 <- Array.fold_left Float.max 0. at;
        Array.iteri
          (fun k fr ->
            let name = "frame." ^ P.verb_of_request fr.fr_req in
            ignore (add_span ~parent:visit.sp_id name started.(c) at.(k)))
          frames)
      visit_span.(c);
    (* a cycle's edit becomes serviceable when the previous cycle's
       commit is answered (the burst: when the visit is submitted) *)
    let commit_at = Hashtbl.create 4 and check_at = Hashtbl.create 4 in
    Array.iteri
      (fun k fr ->
        match fr.fr_role with
        | R_commit cyc -> Hashtbl.replace commit_at cyc at.(k)
        | R_check cyc -> Hashtbl.replace check_at cyc at.(k)
        | _ -> ())
      frames;
    Array.iteri
      (fun k fr ->
        let good =
          match replies.(c).(k) with
          | Some resp -> reply_ok fr.fr_expect resp
          | None -> false
        in
        match fr.fr_role with
        | R_check cyc ->
          let start = if cyc = 0 then started.(c) else Hashtbl.find commit_at (cyc - 1) in
          record t `Check (at.(k) -. start) good "serve recheck verdict"
        | R_repair cyc ->
          record t `Repair (at.(k) -. Hashtbl.find check_at cyc) good "serve repair"
        | R_edit | R_commit _ -> if not good then note_failure t "serve edit/commit reply")
      frames;
    done_visits.(c) <- done_visits.(c) + 1
  in
  let t0 = now () in
  if !tracing then
    Array.iteri
      (fun c _ -> client_span.(c) <- Some (add_span ~parent:0 (Printf.sprintf "client%d" c) t0 0.))
      client_span;
  for c = 0 to churn_clients - 1 do
    start_visit c
  done;
  let active = ref churn_clients in
  while !active > 0 do
    Mutex.lock mu;
    while Queue.is_empty inbox do
      Condition.wait cond mu
    done;
    let c = Queue.pop inbox in
    Mutex.unlock mu;
    if !tracing then
      Array.iteri
        (fun k fr ->
          Option.iter
            (fun resp -> exchanged := `Resp (P.verb_of_request fr.fr_req, resp) :: !exchanged)
            replies.(c).(k))
        cur.(c);
    finish_visit c;
    if done_visits.(c) < visits_per_client then start_visit c else decr active
  done;
  let wall = now () -. t0 in
  Array.iter (Option.iter (fun sp -> sp.sp_t1 <- t0 +. wall)) client_span;
  E.drain ch.ch_engine;
  let deltas = counter_deltas counts in
  let served = E.frames_served ch.ch_engine - served0 in
  let logged = Server.Reqlog.count ch.ch_reqlog in
  let visits = visits_per_client * churn_clients in
  let revived = List.assoc "server.sessions_revived" deltas in
  (* accounting contracts: each one failing is a failed operation *)
  let contract ok what = if not ok then note_failure t what in
  contract (revived = visits)
    (Printf.sprintf "revivals %d, planned %d" revived visits);
  contract (served = !submitted) (Printf.sprintf "frames served %d, submitted %d" served !submitted);
  contract (logged = E.frames_served ch.ch_engine)
    (Printf.sprintf "reqlog records %d, frames served %d" logged (E.frames_served ch.ch_engine));
  ( { ph_wall = wall; ph_tally = t; ph_counts = deltas; ph_hists = hist_deltas hists },
    List.rev !exchanged )

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of a traced phase                                 *)

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)
let mean (s, c) = if c = 0 then 0. else s /. float_of_int c

(* Snapshot.load + revive over every snapshot the run left behind,
   after the measured phase: the mean seconds per revival, and the
   part of it outside the translation, symmetry analysis and solving
   that the relog/sat histograms count already. *)
let time_revivals dir =
  let files =
    if Sys.file_exists dir then
      List.filter (fun f -> Filename.check_suffix f ".snap") (Array.to_list (Sys.readdir dir))
    else []
  in
  let tr0, sy0, sv0 = inner_times () in
  let t0 = now () in
  List.iter
    (fun f ->
      let snap = ok_or "snapshot load" (Server.Snapshot.load (Filename.concat dir f)) in
      ignore (ok_or "revive" (Server.Snapshot.revive snap)))
    files;
  let total = now () -. t0 in
  let tr1, sy1, sv1 = inner_times () in
  let self = total -. (tr1 -. tr0) -. (sy1 -. sy0) -. (sv1 -. sv0) in
  let n = float_of_int (List.length files) in
  if files = [] then (0., 0.) else (total /. n, self /. n)

(* The per-layer metric [name] of a traced phase. [extra] holds what
   serve_churn measures after its phase (revival and codec times). *)
let layer_metric workload (ph : phase) ~untraced_wall ~extra name =
  let d n = List.assoc n ph.ph_counts in
  let h n = List.assoc n ph.ph_hists in
  let x n = Option.value ~default:0. (List.assoc_opt n extra) in
  let sum_verbs family =
    List.fold_left
      (fun (s, c) v ->
        let s', c' = h ("server." ^ family ^ "." ^ v ^ "_s") in
        (s +. s', c + c'))
      (0., 0) verbs
  in
  let translate = fst (h "relog.translate_s")
  and symmetry = fst (h "relog.symmetry.analysis_s")
  and solve = fst (h "sat.solve_time_s") in
  match name with
  | "qvtr.parse_s" | "qvtr.eval_s" | "qvtr.encode_s" | "incr.apply_edits_s"
  | "incr.recheck_s" | "incr.rerepair_s" | "incr.commit_s" ->
    layer_value name
  | "echo.repair_s" -> layer_value "echo.repair_s#total"
  | "echo.repair_other_s" -> layer_value "echo.repair_s"
  | "echo.repair.iterations" | "relog.formulas_translated" | "sat.solves"
  | "sat.conflicts" | "sat.propagations" | "incr.rebuilds"
  | "server.sessions_revived" ->
    float_of_int (d name)
  | "relog.translate_s" -> translate
  | "relog.symmetry_s" -> symmetry
  | "sat.solve_s" -> solve
  | "relog.memo_hit_ratio" -> ratio (d "relog.memo_hits") (d "relog.memo_misses")
  | "incr.translation_cache_hit_ratio" ->
    ratio (d "incr.translation_cache_hits") (d "incr.translation_cache_misses")
  | "server.queue_wait_s" -> mean (sum_verbs "queue_wait")
  | "server.service_s" -> mean (sum_verbs "service")
  | "server.recheck_warm_s" -> mean (h "server.recheck.warm_s")
  | "server.recheck_scratch_s" -> mean (h "server.recheck.scratch_s")
  | "server.coalesce_ratio" ->
    let frames = snd (h "server.service.apply_edits_s") in
    if frames = 0 then 0. else float_of_int (d "server.edits_coalesced") /. float_of_int frames
  | "server.revive_s" | "server.codec_s" -> x name
  | "attributed_share" ->
    (* layer self time over the traced wall. On serve_churn the layers
       run on the pool's workers, so the wall is per worker, and the
       layers are translation, symmetry analysis and solving (from the
       histograms the workers feed) plus each revival's own part *)
    if workload = "serve_churn" then
      (translate +. symmetry +. solve +. (float_of_int (d "server.sessions_revived") *. x "revive_self_s"))
      /. (ph.ph_wall *. float_of_int churn_jobs)
    else
      List.fold_left
        (fun acc n -> acc +. layer_value n)
        0.
        [ "qvtr.parse_s"; "qvtr.eval_s"; "qvtr.encode_s"; "echo.repair_s";
          "incr.apply_edits_s"; "incr.recheck_s"; "incr.rerepair_s"; "incr.commit_s";
          "relog.translate_s"; "relog.symmetry_s"; "sat.solve_s" ]
      /. ph.ph_wall
  | "trace_overhead_share" -> (ph.ph_wall /. untraced_wall) -. 1.
  | n -> fail "unknown per-layer metric %S" n

let time_codec exchanged =
  let t0 = now () in
  List.iter
    (function
      | `Req req -> ignore (ok_or "codec" (P.parse_request (P.request_to_string req)))
      | `Resp (verb, resp) ->
        ignore (ok_or "codec" (P.parse_response (P.response_to_string ~verb resp))))
    exchanged;
  now () -. t0

(* ------------------------------------------------------------------ *)
(* Running a workload                                                  *)

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  state_dir : string;
  trace_out : string option;
  metrics : string list;  (** the metrics to report, by name *)
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let state_dir = ref "" and trace_out = ref "" and metrics = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "oneshot | edit_session | serve_churn");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "nominal measured seconds (sets the plan size)");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--state-dir", Arg.Set_string state_dir, "directory for snapshots");
      ("--trace-out", Arg.Set_string trace_out, "file for the traced run's spans");
      ("--metrics", Arg.Set_string metrics, "comma-separated names of the metrics to report") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --state-dir DIR --metrics M,...";
  if not (List.mem !workload [ "oneshot"; "edit_session"; "serve_churn" ]) then
    fail "unknown workload %S" !workload;
  if !seconds < 1 then fail "--seconds must be >= 1";
  if !state_dir = "" then fail "--state-dir is required";
  if !metrics = "" then fail "--metrics is required";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    state_dir = !state_dir; trace_out = (if !trace_out = "" then None else Some !trace_out);
    metrics = String.split_on_char ',' !metrics }

(* Every run repeats its plan [reps] times, each after a fresh timed
   set-up: setup_s is the median set-up, the percentiles are taken over
   the samples of all repetitions pooled, and ops_per_s is operations
   over the measured wall, both summed over the repetitions. A traced
   run adds one more repetition with spans and layer accounting on.
   Every time is scaled to the reference speed (see [reference_s]). *)
let reps = 3

(* Work counts that repeat exactly, across repetitions and across runs
   of one seed: everything on the jobs = 1 workloads; on serve_churn
   only the revival count is fixed by construction. *)
let deterministic workload =
  if workload = "serve_churn" then [ "server.sessions_revived" ]
  else
    [ "sat.conflicts"; "sat.propagations"; "relog.formulas_translated"; "incr.rebuilds";
      "echo.repair.iterations" ]

let run a =
  (* one repetition: a timed set-up, then the plan *)
  let repetition ~index ~traced =
    speed_log := [];
    let t0 = now () in
    let measure =
      match a.workload with
      | "oneshot" ->
        let cases = oneshot_setup ~seed:a.seed ~seconds:a.seconds in
        fun () -> (oneshot_measure cases, [])
      | "edit_session" ->
        let s = session_setup ~seed:a.seed in
        fun () -> (session_measure ~seed:a.seed ~seconds:a.seconds s, [])
      | _ ->
        let ch = churn_setup ~seed:a.seed ~state_dir:a.state_dir ~index in
        fun () ->
          let ph, exchanged = churn_measure ~seconds:a.seconds ch in
          E.shutdown ch.ch_engine;
          Server.Reqlog.close ch.ch_reqlog;
          let extra =
            if traced then
              let revive, revive_self = time_revivals ch.ch_dir in
              [ ("server.revive_s", revive); ("revive_self_s", revive_self);
                ("server.codec_s", time_codec exchanged) ]
            else []
          in
          remove_tree ch.ch_dir;
          (ph, extra)
    in
    let setup_s = now () -. t0 in
    if traced then begin
      tracing := true;
      Hashtbl.reset layers
    end;
    let ph, extra = Fun.protect ~finally:(fun () -> tracing := false) measure in
    (setup_s, ph, extra, !speed_log)
  in
  (* serve_churn keeps both cores busy through its phase, so no
     reference run can sample them there, and bursts between its
     repetitions, on one core at other moments, did not follow its
     speed: it reports raw seconds (factor 1) *)
  let scale = a.workload <> "serve_churn" in
  let burst () = if scale then speed_samples () else (Gc.full_major (); []) in
  (* the repetitions with their speed factors; the traced one last *)
  let count = if a.trace then reps + 1 else reps in
  let rec go i before acc =
    if i > count then List.rev acc
    else
      let setup_s, ph, extra, inside = repetition ~index:i ~traced:(i > reps) in
      let after = burst () in
      let k = if scale then reference_s /. median (before @ inside @ after) else 1. in
      go (i + 1) after ((k, setup_s, ph, extra) :: acc)
  in
  let runs = go 1 (burst ()) [] in
  let plain = List.filteri (fun i _ -> i < reps) runs in
  let traced = List.nth_opt runs reps in
  let speeds = List.map (fun (k, _, _, _) -> k) plain in
  let phases = List.map (fun (_, _, p, _) -> p) plain in
  let first = List.hd phases in
  (* every time below is scaled by its own repetition's factor *)
  let setups = List.map (fun (k, s, _, _) -> k *. s) plain in
  let wall = List.fold_left (fun w (k, _, p, _) -> w +. (k *. p.ph_wall)) 0. plain in
  let samples f = List.concat_map (fun (k, _, p, _) -> List.map (( *. ) k) (f p.ph_tally)) plain in
  let checks = samples (fun t -> t.checks) and repairs = samples (fun t -> t.repairs) in
  let all = phases @ Option.to_list (Option.map (fun (_, _, p, _) -> p) traced) in
  (* the traced repetition must do the same work as the others *)
  let fixed p = List.map (fun n -> (n, List.assoc n p.ph_counts)) (deterministic a.workload) in
  let repeatable = List.for_all (fun p -> fixed p = fixed first) all in
  let attempted = List.fold_left (fun n p -> n + p.ph_tally.attempted) 0 all in
  let failed =
    List.fold_left (fun n p -> n + p.ph_tally.failed) (if repeatable then 0 else 1) all
  in
  let failures =
    (if repeatable then [] else [ "work counts differ between repetitions" ])
    @ List.concat_map (fun p -> List.rev p.ph_tally.failures) all
  in
  let metric =
    match traced with
    | None ->
      (* the deciles show where each percentile sits between populations *)
      let deciles name l =
        let a = Array.of_list l in
        Array.sort compare a;
        let n = Array.length a in
        Printf.printf "%s deciles (ms): %s\n" name
          (String.concat " "
             (List.init 11 (fun d -> Printf.sprintf "%.2f" (1000. *. a.(min (n - 1) (d * n / 10))))))
      in
      deciles "check" checks;
      deciles "repair" repairs;
      let pct name pct l =
        let v, n, beyond = percentile name pct l in
        Printf.printf "%-14s %.6f s  (n=%d, %d beyond)\n" name v n beyond;
        v
      in
      (function
        | "setup_s" -> median setups
        | "ops_per_s" -> float_of_int (List.length checks + List.length repairs) /. wall
        | "check_p50_s" as n -> pct n 50 checks
        | "check_p90_s" as n -> pct n 90 checks
        | "repair_p50_s" as n -> pct n 50 repairs
        | "repair_p90_s" as n -> pct n 90 repairs
        | "goodput_share" ->
          float_of_int (max 0 (attempted - failed)) /. float_of_int (max 1 attempted)
        | n -> fail "unknown end-to-end metric %S" n)
    | Some (k, _, ph, extra) ->
      Option.iter write_spans a.trace_out;
      let untraced_wall = wall /. float_of_int reps /. k in
      fun n ->
        let v = layer_metric a.workload ph ~untraced_wall ~extra n in
        (* by the naming convention, a metric named *_s is in seconds *)
        if String.ends_with ~suffix:"_s" n then k *. v else v
  in
  let metrics = List.map (fun n -> (n, Num (metric n))) a.metrics in
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) failures;
  List.iter (fun (n, v) -> Printf.printf "work %-32s %d\n" n v) first.ph_counts;
  let secs l = String.concat " " (List.map (Printf.sprintf "%.3f") l) in
  Printf.printf "raw measured walls %s s, set-ups %s s; speed factors %s\n"
    (secs (List.map (fun p -> p.ph_wall) all))
    (secs (List.map (fun (_, s, _, _) -> s) plain))
    (secs (List.map (fun (k, _, _, _) -> k) plain));
  let result =
    Obj
      [ ("correct", Bool (failed = 0));
        ("attempted", Int attempted);
        ("failed", Int failed);
        ("metrics", Obj metrics);
        ("samples", Obj [ ("checks", Int (List.length checks)); ("repairs", Int (List.length repairs)) ]);
        ("speed", Num (median speeds));
        ("work", Obj (List.map (fun (n, v) -> (n, Int v)) (fixed first))) ]
  in
  print_endline (json_to_string result)

let () =
  match run (parse_args ()) with
  | () -> exit 0
  | exception Failure msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 1
