"""The operations of each workload, and the check each output must pass.

An operation is a `kneserc` command line (run in-process through
kneser_colorings.cli.main, output written with --out) or, where kneserc
offers no such operation, a library call.  Its check names a function of
checks.py and the closed-form facts it is compared with.
"""
from __future__ import annotations

import os
from math import comb

import checks
import inputs

# construct: design search, self-verification and geometric adjacency, no oracle
ACHROMATIC_N = (58, 59, 60, 61, 62, 63)  # every residue of n mod 6
ACHROMATIC_GRUNDY_N = (60, 61, 62)
PSI_LOWER_N = tuple(range(7, 45))  # crosses the C4-free search orders 10, 16, ..., 40
KTS_N = (21, 51, 63)  # rotational starter search
DV_STS_N = 21
DV_EVEN_N = 20
DVNK_N, DVNK_K = 16, 3
TRIANGLE_PAIRS_N = 12

VERIFY_CHECKS = "proper,complete,grundy,dominating,condition-c"


def _cli(name, argv, check):
    return {"id": name, "kind": "cli", "argv": argv + ["--out", "{outdir}/" + name + ".json"],
            "check": check}


def _construct(seeds):
    ops = []
    for n in ACHROMATIC_N:
        grundy = n in ACHROMATIC_GRUNDY_N
        ops.append(_cli(f"achromatic-{n}{'-grundy' if grundy else ''}",
                        ["construct", "--family", "kn2-achromatic", "--n", str(n)]
                        + (["--grundy"] if grundy else []),
                        {"fn": "kn2", "n": n, "count": checks.alpha_kn2(n), "proper": True,
                         "size_ordered": grundy}))
    for n in PSI_LOWER_N:
        ops.append(_cli(f"psi-lower-{n}", ["construct", "--family", "kn2-psi-lower", "--n", str(n),
                                           "--seed", str(seeds["psi"])],
                        {"fn": "kn2", "n": n, "count": comb(n, 2) // 2, "proper": False}))
    ops.append(_cli("psi-tight-20", ["construct", "--family", "kn2-psi-tight", "--n", "20"],
                    {"fn": "kn2", "n": 20, "count": 100, "proper": False}))
    for n in KTS_N:
        ops.append(_cli(f"kts-{n}", ["design", "--type", "kts", "--n", str(n)],
                        {"fn": "kts", "n": n}))
    ps = str(seeds["points"])
    n = DV_STS_N
    ops.append(_cli(f"dv-sts-{n}", ["geom", "--op", "dv-coloring", "--n", str(n),
                                    "--layout", "random", "--seed", ps],
                    {"fn": "dv", "n": n, "k": 2, "count": comb(n, 2) // 3, "proper": True,
                     "convex": False}))
    n = DV_EVEN_N
    ops.append(_cli(f"dv-convex-{n}", ["geom", "--op", "dv-coloring", "--n", str(n),
                                       "--layout", "convex"],
                    {"fn": "dv", "n": n, "k": 2, "count": comb(n + 1, 2) // 3, "proper": True,
                     "convex": True}))
    n, k = DVNK_N, DVNK_K
    ops.append(_cli(f"dvnk-{n}-{k}", ["geom", "--op", "dvnk", "--n", str(n), "--k", str(k),
                                      "--layout", "random", "--seed", ps],
                    {"fn": "dv", "n": n, "k": k, "count": comb(n // 2, k), "proper": False,
                     "convex": False}))
    n = TRIANGLE_PAIRS_N
    ops.append(_cli(f"triangle-pairs-{n}", ["geom", "--op", "triangle-pairs", "--n", str(n),
                                            "--layout", "random", "--seed", ps],
                    {"fn": "triangle_pairs", "n": n}))
    return ops


# Rejections that are faults of the package, seen on every seed: they count
# as failed operations but leave the run correct.  At n = 60 the singleton
# classes cover every point, so the split-off vertex of tampered-complete-60
# always shares points with them, and check_condition_C still reports a pass
# (CHANGES.md, FOUND: check_condition_C).
KNOWN_FAULTS = {
    "tampered-complete-60": "condition_c passes is True, the definition gives False",
}


def _verify(seeds, workdir):
    ops = []
    for name, n, path, tamper in inputs.write_inputs(seeds["tamper"],
                                                      os.path.join(workdir, "inputs")):
        check = {"fn": "verify", "certificate": path, "tamper": tamper}
        if name in KNOWN_FAULTS:
            check["known_fault"] = KNOWN_FAULTS[name]
        ops.append(_cli(f"verify-{name}",
                        ["verify", "--graph", "kneser", "--n", str(n), "--k", "2",
                         "--coloring", path, "--checks", VERIFY_CHECKS], check))
    return ops


# oracle: exact branch-and-bound only
KNESER_ORACLES = ((6, 3, "alpha"), (6, 3, "psi"),
                  (6, 2, "alpha"), (6, 2, "psi"), (6, 2, "grundy"),
                  (5, 2, "alpha"), (5, 2, "psi"), (5, 2, "grundy"), (5, 2, "chi"),
                  (7, 2, "chi"), (7, 3, "chi"))


def _oracle(seeds):
    ops = []
    for n, k, param in KNESER_ORACLES:
        cap = ["--cap", str(comb(n, k))] if comb(n, k) > (24 if param == "chi" else 16) else []
        ops.append(_cli(f"{param}-K{n}{k}", ["oracle", "--param", param, "--n", str(n),
                                              "--k", str(k)] + cap,
                        {"fn": "oracle_kneser", "n": n, "k": k, "param": param}))
    ops.append({"id": "grundy-DV6-convex", "kind": "oracle_dv", "param": "grundy",
                "layout": "convex", "n": 6, "check": {"fn": "oracle_dv", "param": "grundy"}})
    # one seeded point set: its search time varies with the seed (0.06 to 0.9 s for psi)
    for param in ("alpha", "psi"):
        ops.append({"id": f"{param}-DV6-random", "kind": "oracle_dv", "param": param,
                    "layout": "random", "seed": seeds["points"], "n": 6,
                    "check": {"fn": "oracle_dv", "param": param}})
    return ops


WORKLOADS = ("construct", "verify", "oracle")


def build(workload, seeds, workdir):
    if workload == "construct":
        return _construct(seeds)
    if workload == "verify":
        return _verify(seeds, workdir)
    return _oracle(seeds)
