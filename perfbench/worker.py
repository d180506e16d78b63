"""One round of a workload, in a fresh interpreter started by run.py.

A fresh interpreter per round means the package's memo caches
(build_kneser, construct_sts, c4_free_one_factorization) start empty, as
they do for each `kneserc` invocation.  One client in one thread issues the
operations back to back and times each with perf_counter; nothing else runs
inside the timed region but the speed samples described below, whose time
is subtracted.  Each finished operation is appended to the
results file at once, so a round that is killed still reports what it did.

    python3 perfbench/worker.py MANIFEST RESULTS T0 [--setup-only] [--trace]

T0 is the parent's perf_counter reading just before it started this
process (CLOCK_MONOTONIC, shared by all processes), so set-up time covers
interpreter start-up, the package import and loading the operation list.
With --setup-only the worker then times the reference computation (below)
SETUP_SAMPLES times and exits, so its set-up time can be put in reference
seconds too.

The speed of the machine's CPUs drifts by up to 2x over tens of seconds,
which would swamp any change in the package.  So while the operations run,
a timer interrupts them every SAMPLE_INTERVAL_S to time a fixed reference
computation (the benchmark's own code, never the package's).  Each
operation's time, less the time spent in those samples, is also reported
in reference seconds: scaled by REFERENCE_S over the mean reference time
sampled during the operation (or within SAMPLE_WINDOW_S of it, if it was
too short for three samples), i.e. the time it would take while the
reference takes REFERENCE_S.
"""
from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time
from itertools import combinations

SAMPLE_INTERVAL_S = 0.05
SAMPLE_WINDOW_S = 0.25  # samples this close to an operation count for it
SETUP_SAMPLES = 20  # reference timings taken after a set-up-only start
REFERENCE_S = 0.0015  # about the median time of reference() on the machine the README describes

_KEYS = list(combinations(range(24), 2))
_INDEX = {p: i for i, p in enumerate(_KEYS)}
_MASK = (1 << 300) - 1


def reference():
    """Fixed interpreter work of the kinds the package does: tuple-keyed dict
    lookups, list building, combinations and big-int arithmetic."""
    acc = 0
    for a, b in _KEYS[:150]:
        rest = [x for x in range(24) if x != a and x != b]
        for c, d in combinations(rest[:9], 2):
            acc ^= _INDEX[(c, d)] & 0xFF
    big = _MASK
    for i in range(200):
        big = (big * 3 + i) & _MASK
        acc += big.bit_count()
    return acc


def _time_reference():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class SpeedProbe:
    """Times reference() on every SIGALRM; keeps (start, seconds) samples."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # time taken from the operations by sampling

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference()
        self.samples.append((start, time.perf_counter() - start))
        self.spent += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def clock(self):
        """perf_counter less the time taken by sampling so far."""
        return time.perf_counter() - self.spent

    def reference_time(self, start, end):
        """Mean reference time over the operation, or around it if it was too short."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) >= 3:
            return statistics.fmean(inside)
        near = [d for t, d in self.samples if start - SAMPLE_WINDOW_S <= t <= end + SAMPLE_WINDOW_S]
        return statistics.fmean(near or [d for _, d in self.samples])


def main(argv):
    manifest_path, results_path, t0 = argv[0], argv[1], float(argv[2])
    setup_only = "--setup-only" in argv
    traced = "--trace" in argv
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import kneser_colorings
    from kneser_colorings import cli, geometry, oracle
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    outdir = manifest["outdir"]
    ops = manifest["ops"]
    for op in ops:
        if op["kind"] == "cli":
            op["argv"] = [a.replace("{outdir}", outdir) for a in op["argv"]]
    oracles = {"alpha": "exact_achromatic", "psi": "exact_pseudoachromatic",
               "grundy": "exact_grundy", "chi": "exact_chromatic"}
    probe = SpeedProbe()
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer(probe.clock)
        tracer.install()
    package_file = os.path.realpath(kneser_colorings.__file__)
    with open(results_path, "w") as out:
        first = time.perf_counter()
        head = {"setup_s": first - t0, "package": package_file}
        if setup_only:  # the machine's speed just after set-up, for reference seconds
            head["reference_s"] = statistics.median(_time_reference() for _ in range(SETUP_SAMPLES))
        out.write(json.dumps(head) + "\n")
        out.flush()
        if setup_only:
            return 0
        probe.start()
        done = []
        for op in ops:
            error = exit_code = result = None
            start, op_start = time.perf_counter(), probe.clock()
            try:
                if op["kind"] == "cli":
                    exit_code = cli.main(op["argv"])
                else:
                    if op["layout"] == "convex":
                        ps = geometry.convex_position_points(op["n"])
                    else:
                        ps = geometry.random_general_position(op["n"], seed=op["seed"])
                    result = getattr(oracle, oracles[op["param"]])(geometry.build_dv(ps, 2))
            except Exception as exc:  # the operation failed; the round goes on
                error = f"{type(exc).__name__}: {exc}"
            end, op_end = time.perf_counter(), probe.clock()
            rec = {"id": op["id"], "seconds": op_end - op_start,
                   "exit": exit_code, "error": error}
            if result is not None:
                rec.update(value=result.value, nodes=result.nodes_explored, param=result.param,
                           points=[list(p) for p in ps.coords])
            out.write(json.dumps(rec) + "\n")
            out.flush()
            done.append((rec["seconds"], start, end))
        time.sleep(2 * SAMPLE_WINDOW_S)  # samples after the last operation
        probe.stop()
        end = {"done": True,
               "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               "ref_seconds": [sec * REFERENCE_S / probe.reference_time(start, stop)
                               for sec, start, stop in done],
               "reference_s": statistics.fmean(d for _, d in probe.samples)}
        if tracer is not None:
            end.update(spans=tracer.spans, counts=dict(tracer.counts))
        out.write(json.dumps(end) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
