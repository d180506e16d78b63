"""Benchmark of the certified Kneser-coloring engine: one workload per run.

    python3 perfbench/run.py --workload construct|verify|oracle --seed N \
        --seconds S --trace 0|1 [--psi-seed N] [--points-seed N] [--tamper-seed N]

Run from the root of a checkout of the repository; the package is imported
from its src/.  A run measures whole rounds of the workload for about
--seconds seconds, at least one; each round runs every operation once, in
a fresh interpreter (worker.py).  Outputs are checked after each round,
outside the timed region, by checks.py, which shares no code with the
package.  The last line of standard output is one JSON object:
correct, attempted, failed, and the metrics, end-to-end ones with
--trace 0 and per-layer ones (from traced rounds, with the tracing
overhead against the untraced rounds of the same run) with --trace 1.
Operation and set-up times are in reference seconds (see worker.py).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import namedtuple

import checks
import tracing
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# fresh interpreters that only set up, before the rounds and again after them
SETUP_PROBES = 8
RUN_LIMIT_S = 165  # no round may start or run past this many seconds into the run


# one finished round: op times in reference seconds, and the worker's end record
Round = namedtuple("Round", "traced wall max_op rss_mb end")


# how one operation of one round ended: "ok", "failed", "rejected" by its check,
# or "known fault" (see outcome)
Outcome = namedtuple("Outcome", "status reason")


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _check_output(op, rec, outdir, seed):
    spec = op["check"]
    fn = spec["fn"]
    if fn == "oracle_dv":
        pts = checks.check_general_position(rec["points"], op["n"])
        if op["layout"] == "convex":
            checks.require(checks.in_convex_position(pts), "points are not in convex position")
        checks.require(rec["param"] == spec["param"], "oracle answered another parameter")
        checks.check_oracle_value(spec["param"], rec["value"], rec["nodes"],
                                  checks.dv_adjacency(pts), seed)
        return
    doc = _read_json(os.path.join(outdir, op["id"] + ".json"))
    if fn == "kn2":
        checks.check_kn2_coloring(doc, spec["n"], spec["count"], spec["proper"],
                                  spec.get("size_ordered", False))
    elif fn == "kts":
        checks.check_kts(doc, spec["n"])
    elif fn == "dv":
        checks.check_dv_coloring(doc, spec["n"], spec["k"], spec["count"], spec["proper"],
                                 spec["convex"])
    elif fn == "triangle_pairs":
        checks.check_triangle_pairs(doc, spec["n"])
    elif fn == "verify":
        checks.check_verify_report(_read_json(spec["certificate"]), doc, rec["exit"],
                                   spec["tamper"])
    elif fn == "oracle_kneser":
        n, k, param = spec["n"], spec["k"], spec["param"]
        checks.require((doc.get("param"), doc.get("n"), doc.get("k")) == (param, n, k),
                       "oracle answered another question")
        checks.check_oracle_value(param, doc.get("value"), doc.get("nodes_explored"),
                                  checks.kneser_adjacency(n, k), seed,
                                  exact=checks.exact_value(param, n, k),
                                  lower=checks.alpha_kn2(n) if (k, param) == (2, "psi") else None)
    else:
        raise ValueError(f"unknown check {fn}")


def outcome(op, rec, outdir, seed):
    """How one operation of a round ended.

    An output rejected with exactly the reason its op names as a known
    fault of the package is "known fault": it counts as failed, but does
    not make the run incorrect.  Any other rejection does.
    """
    if rec is None:
        return Outcome("failed", "not finished")
    if rec["error"]:
        return Outcome("failed", rec["error"])
    allowed = (0, 1) if op["check"]["fn"] == "verify" else (0,)
    if op["kind"] == "cli" and rec["exit"] not in allowed:
        return Outcome("failed", f"exit code {rec['exit']}")
    try:
        _check_output(op, rec, outdir, seed)
    except checks.CheckFailed as exc:
        if str(exc) == op["check"].get("known_fault"):
            return Outcome("known fault", str(exc))
        return Outcome("rejected", f"CheckFailed: {exc}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome("rejected", f"{type(exc).__name__}: {exc}")
    return Outcome("ok", "")


def _spawn(manifest, results, timeout, flags=()):
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), manifest, results,
                             repr(t0), *flags], stdout=sys.stderr)
    try:
        proc.wait(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        pass
    finally:  # also when the run itself is stopped
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = []
    if os.path.exists(results):
        with open(results) as fh:
            lines = [json.loads(line) for line in fh if line.endswith("\n")]
    return lines, time.perf_counter() - t0


def _expected_package():
    return os.path.realpath(os.path.join(os.getcwd(), "src", "kneser_colorings", "__init__.py"))


def run(args):
    seeds = {"psi": args.psi_seed,
             "points": args.seed if args.points_seed is None else args.points_seed,
             "tamper": args.seed if args.tamper_seed is None else args.tamper_seed}
    run_start = time.perf_counter()
    workdir = os.path.join(HERE, "_run", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        ops = workloads.build(args.workload, seeds, workdir)

        def manifest_for(outdir):
            path = os.path.join(workdir, "manifest.json")
            with open(path, "w") as fh:
                json.dump({"outdir": outdir, "ops": ops}, fh)
            return path

        setups = []

        def probe_setup():
            """Start an interpreter that only sets up; False if it did not import src/."""
            lines, _ = _spawn(manifest_for(workdir),
                              os.path.join(workdir, f"setup{len(setups)}.jsonl"),
                              30, ["--setup-only"])
            if not lines or lines[0]["package"] != _expected_package():
                _log(f"worker did not import the package from src/: {lines[:1]}")
                return False
            head = lines[0]
            setups.append(head["setup_s"] * worker.REFERENCE_S / head["reference_s"])
            return True

        if not all(probe_setup() for _ in range(SETUP_PROBES)):
            return None

        rounds = []
        attempted = failed = 0
        correct = True
        measured = 0.0
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            outdir = os.path.join(workdir, f"round{len(rounds)}")
            os.makedirs(outdir)
            remaining = RUN_LIMIT_S - (time.perf_counter() - run_start)
            lines, elapsed = _spawn(manifest_for(outdir),
                                    os.path.join(workdir, f"round{len(rounds)}.jsonl"),
                                    remaining, ["--trace"] if traced else [])
            records = {rec["id"]: rec for rec in lines[1:] if "id" in rec}
            end = lines[-1] if lines and lines[-1].get("done") else None
            for op in ops:
                out = outcome(op, records.get(op["id"]), outdir, args.seed)
                attempted += 1
                if out.status != "ok":
                    failed += 1
                    correct = correct and out.status != "rejected"
                    _log(f"{op['id']}: {out.status}: {out.reason}")
            shutil.rmtree(outdir, ignore_errors=True)
            if end is None:
                _log(f"{args.workload} round {len(rounds) + 1} did not finish")
                break
            raw = [rec["seconds"] for rec in records.values()]
            times = end["ref_seconds"]
            rounds.append(Round(traced, sum(times), max(times), end["peak_rss_kb"] / 1024, end))
            _log(f"{args.workload} round {len(rounds)}{' traced' if traced else ''}: "
                 f"{len(raw)} operations, {sum(raw):.3f} s, {sum(times):.3f} reference s "
                 f"(reference computation {end['reference_s'] * 1000:.3f} ms)")
            measured += elapsed
            if time.perf_counter() - run_start + elapsed > RUN_LIMIT_S:
                break
            if measured + elapsed > args.seconds and (not args.trace or len(rounds) >= 2):
                break

        if not all(probe_setup() for _ in range(SETUP_PROBES)):
            return None
        _log(f"set-up times: {' '.join(f'{t:.4f}' for t in setups)} reference s")
        plain = [r for r in rounds if not r.traced]
        traced_rounds = [r for r in rounds if r.traced]
        if not plain or (args.trace and not traced_rounds):
            return None
        if args.trace:
            layers = [tracing.layer_metrics(r.end["spans"], r.end["counts"],
                                            worker.REFERENCE_S / r.end["reference_s"])
                      for r in traced_rounds]
            metrics = {name: {"value": statistics.median(lay[name] for lay in layers),
                              "unit": "s" if name in tracing.TIME_METRICS else "count"}
                       for name in layers[0]}
            overhead = (statistics.median(r.wall for r in traced_rounds)
                        / statistics.median(r.wall for r in plain) - 1) * 100
            metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
            with open(os.path.join(HERE, "_run", f"spans-{args.workload}-seed{args.seed}.json"),
                      "w") as fh:
                json.dump(traced_rounds[-1].end["spans"], fh)
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": statistics.median(r.wall for r in plain), "unit": "s"},
                "max_op_s": {"value": statistics.median(r.max_op for r in plain), "unit": "s"},
                "peak_rss_mb": {"value": max(r.rss_mb for r in plain), "unit": "MB"},
            }
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description="Benchmark of the kneser-colorings engine.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="workload seed; the default for --points-seed and --tamper-seed")
    ap.add_argument("--seconds", type=int, required=True, help="how long to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from traced rounds")
    ap.add_argument("--psi-seed", type=int, default=0,
                    help="--seed of the kn2-psi-lower constructions (kneserc's default is 0)")
    ap.add_argument("--points-seed", type=int, help="seed of the random point sets")
    ap.add_argument("--tamper-seed", type=int, help="seed of the verify inputs")
    args = ap.parse_args(argv)
    # stopped from outside: unwind, so the worker is killed and the work files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "kneser_colorings", "__init__.py")):
        _log("run from the root of a checkout: src/kneser_colorings is not here")
        return 2
    result = run(args)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
