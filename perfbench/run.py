#!/usr/bin/env python3
"""Build and run the mdqvtr benchmark.

Run one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds perfbench/main.exe with dune, runs it in a process of its own,
checks that the run's work counts equal those of every earlier run of
the same seed on the same sources (the determinism self-check), and
prints one JSON line: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).

Other modes:

    python3 perfbench/run.py sweep --out FILE [--workloads a,b] [--seeds 1-10]
                                   [--seconds S] [--trace 0|1]
        run many times and append one record per run to FILE (JSONL);
    python3 perfbench/run.py compare A.jsonl [B.jsonl]
        per workload: each metric's median and quartiles, its spread
        against the bound, and with two sets the change of every
        end-to-end and per-layer median;
    python3 perfbench/run.py validate [--seed N] [--seconds S]
        under a seed kept out of tuning: every workload twice (oracle,
        determinism) and once traced (attribution >= 0.9, and which
        layer dominates where).

Everything the benchmark writes stays under perfbench/.state and the
dune build directory _build_bench in the checkout.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(HERE, ".state")
BUILD_DIR = "_build_bench"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ["oneshot", "edit_session", "serve_churn"]
VALIDATION_SEED = 90001
DEFAULT_SECONDS = 20
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def source_digest():
    """Digest of every OCaml source and build file the program is made of."""
    h = hashlib.sha256()
    for top in ["lib", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "_")))
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".c", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("the repository sources (dune-project, lib/) are not next to perfbench/")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        die("build failed")


def check_determinism(workload, seed, seconds, work):
    """Compare this run's work counts with the ledger entry of its seed.

    The counts (those main.exe reports as fixed for the workload) are
    from the first untraced repetition, which a traced run performs
    too, so traced and untraced runs share entries."""
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(STATE, "ledger.json")
    ledger = load_json(path) if os.path.isfile(path) else {}
    key = "%s|%d|%d|%s" % (workload, seed, seconds, source_digest())
    counts = work
    previous = ledger.get(key)
    if previous is None:
        ledger[key] = counts
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return True
    if previous != counts:
        print("perfbench: determinism check failed for %s seed %d: %s, earlier %s"
              % (workload, seed, counts, previous), file=sys.stderr)
        return False
    return True


def catalogue(trace):
    """(name, unit) of every metric BENCHMARK.json lists for the run kind."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


def run_once(workload, seed, seconds, trace):
    os.makedirs(STATE, exist_ok=True)
    wanted = catalogue(trace)
    # main.exe computes every metric but the peak RSS of its own process
    asked = [name for name, _ in wanted if name != "peak_rss_mb"]
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--state-dir", STATE, "--metrics", ",".join(asked)]
    if trace:
        cmd += ["--trace-out", os.path.join(STATE, "spans-%s-%d.jsonl" % (workload, seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        # wait4 reaps exactly this child and returns its own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    lines = out.decode(errors="replace").splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        die("%s exited with code %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    values = result["metrics"]
    # ru_maxrss is in KiB on Linux
    values["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in wanted}
    if not check_determinism(workload, seed, seconds, result["work"]):
        result["correct"] = False
        result["failed"] = max(1, result["failed"])
    return result


def contract_line(result):
    return json.dumps({k: result[k] for k in ["correct", "attempted", "failed", "metrics"]})


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parser(mode):
    return argparse.ArgumentParser(prog="run.py" + (" " + mode if mode else ""))


def cmd_run(argv):
    p = parser(None)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    f = p.parse_args(argv)
    build()
    result = run_once(f.workload, f.seed, f.seconds, f.trace)
    print(contract_line(result))
    return 0


def cmd_sweep(argv):
    p = parser("sweep")
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    f = p.parse_args(argv)
    build()
    with open(f.out, "a") as out:
        for workload in f.workloads.split(","):
            for seed in f.seeds:
                t0 = time.monotonic()
                result = run_once(workload, seed, f.seconds, f.trace)
                rec = {"workload": workload, "seed": seed, "trace": f.trace,
                       "run_s": time.monotonic() - t0, "result": result}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                print("%s seed %d: correct %s, %.1f s" % (workload, seed, result["correct"], rec["run_s"]),
                      file=sys.stderr)
    return 0


def load_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["trace"]), []).append(rec["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_compare(argv):
    p = parser("compare")
    p.add_argument("results", nargs="+", help="one or two result files written by sweep")
    f = p.parse_args(argv)
    if len(f.results) > 2:
        p.error("at most two result files")
    sets = [load_set(path) for path in f.results]
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    info = load_json(os.path.join(HERE, "metrics.json"))
    for kind in ("end_to_end", "per_layer"):
        if sorted(info[kind]) != sorted(m["name"] for m in bench[kind]):
            die("metrics.json and BENCHMARK.json list different %s metrics" % kind)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worst = 0
    for workload in WORKLOADS:
        for trace, names in [(0, [m["name"] for m in bench["end_to_end"]]),
                             (1, [m["name"] for m in bench["per_layer"]])]:
            if not all((workload, trace) in s for s in sets):
                continue
            print("\n%s (%s, %s)" % (workload, "per-layer" if trace else "end-to-end",
                                      " vs ".join("%d runs" % len(s[(workload, trace)]) for s in sets)))
            for name in names:
                cols = []
                meds = []
                spreads = []
                values = []
                for s in sets:
                    vals = [r["metrics"][name]["value"] for r in s[(workload, trace)]]
                    q1, q2, q3 = quartiles(vals)
                    spread = (q3 - q1) / q2 if q2 else 0.0
                    meds.append(q2)
                    spreads.append(spread)
                    values.append(vals)
                    cols.append("%12.6g [%10.6g %10.6g] spread %5.3f" % (q2, q1, q3, spread))
                    if not trace and len(sets) == 1 and spread > bounds[name]["bound"]:
                        worst = 1
                line = "  %-34s %s" % (name, " | ".join(cols))
                if len(sets) == 2 and meds[0]:
                    change = (meds[1] - meds[0]) / meds[0]
                    line += "  change %+6.1f%%" % (100 * change)
                    if not trace:
                        m = bounds[name]
                        sign = 1 if m["better"] == "lower" else -1
                        worse = sign * change
                        # a spread wider than the bound leaves a change
                        # unresolved, unless every run of the second set
                        # beats every run of the first
                        all_better = max(sign * v for v in values[1]) < min(sign * v for v in values[0])
                        if worse > m["bound"]:
                            verdict, worst = "WORSE than bound", 1
                        elif max(spreads) > m["bound"] and not all_better:
                            verdict = "unresolved: spread above bound"
                        else:
                            verdict = "within bound"
                        line += " (bound %.0f%%: %s)" % (100 * m["bound"], verdict)
                if trace:
                    moves = info["per_layer"].get(name, {}).get("moves", "")
                    line += "  -> " + moves
                elif len(sets) == 1:
                    line += "  (bound %.2f)" % bounds[name]["bound"]
                print(line)
    return worst


def cmd_validate(argv):
    p = parser("validate")
    p.add_argument("--seed", type=int, default=VALIDATION_SEED)
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    f = p.parse_args(argv)
    build()
    ok = True
    shares = {}
    for workload in WORKLOADS:
        for rep in range(2):
            r = run_once(workload, f.seed, f.seconds, 0)
            good = r["correct"] and r["metrics"]["goodput_share"]["value"] == 1.0
            print("%s run %d: correct %s, goodput %.3f" % (workload, rep + 1, r["correct"],
                                                          r["metrics"]["goodput_share"]["value"]))
            ok = ok and good
        r = run_once(workload, f.seed, f.seconds, 1)
        m = {k: v["value"] for k, v in r["metrics"].items()}
        attributed = m["attributed_share"]
        # layer self times (server.* are per-frame means, echo.repair_s
        # is inclusive) as shares of their sum
        time_layers = {k: v for k, v in m.items()
                       if k.endswith("_s") and not k.startswith(("server.", "echo.repair_s"))}
        total = sum(time_layers.values())
        shares[workload] = {k: v / total for k, v in time_layers.items()} if total else {}
        top = max(time_layers, key=time_layers.get)
        print("%s traced: correct %s, attributed %.3f, overhead %+.3f, largest layer %s;"
              " translate %.0f%%, solve %.0f%% of layer time"
              % (workload, r["correct"], attributed, m["trace_overhead_share"], top,
                 100 * shares[workload].get("relog.translate_s", 0),
                 100 * shares[workload].get("sat.solve_s", 0)))
        ok = ok and r["correct"] and attributed >= 0.9
    # translation leads on serve_churn, SAT on edit_session, and each is
    # a minority share on the other workload
    sc, es = shares["serve_churn"], shares["edit_session"]
    dominance = (max(sc, key=sc.get) == "relog.translate_s" and max(es, key=es.get) == "sat.solve_s"
                 and es.get("relog.translate_s", 0) < 0.5 and sc.get("sat.solve_s", 0) < 0.5)
    print("layer dominance (translate on serve_churn, solve on edit_session): %s"
          % ("ok" if dominance else "NOT MET"))
    ok = ok and dominance
    print("validate: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv):
    modes = {"sweep": cmd_sweep, "compare": cmd_compare, "validate": cmd_validate}
    if argv and argv[0] in modes:
        return modes[argv[0]](argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
