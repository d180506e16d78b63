"""Seeded inputs of the `verify` workload: K(n,2) certificates and tampered copies.

The base certificates in data/ are optimal achromatic colorings written by
`kneserc construct --family kn2-achromatic --n N`.  From a seed, each input
relabels the points of its base by a random permutation (an automorphism of
K(n,2), so every verdict is kept), then takes one form:

- plain: the classes in a random order;
- grundy: the classes sorted by decreasing size (the size-ordered relabeling);
- tampered to fail proper: a vertex moved into a class holding a vertex
  disjoint from it;
- tampered to fail complete: a vertex split off its class into a class of
  its own, which then sees nothing of the class it left;
- tampered to fail grundy: a singleton class moved to color 1 of a grundy form.

Nothing here imports the package under test.  Make a set anew with
    python3 perfbench/inputs.py --seed 7 --out DIR
"""
from __future__ import annotations

import argparse
import json
import os
import random

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# (name, base n, form, property the tampering breaks)
VERIFY_SET = (
    ("plain-63", 63, "plain", None),
    ("grundy-66", 66, "grundy", None),
    ("plain-70", 70, "plain", None),
    ("grundy-78", 78, "grundy", None),
    ("tampered-proper-62", 62, "plain", "proper"),
    ("tampered-complete-60", 60, "plain", "complete"),
    ("tampered-grundy-61", 61, "grundy", "grundy"),
)


def load_base(n):
    with open(os.path.join(DATA, f"kn2-achromatic-n{n}.json")) as fh:
        return json.load(fh)


def _relabel(classes, perm):
    return [sorted(sorted((perm[a], perm[b])) for a, b in cls) for cls in classes]


def _tamper_proper(classes, rng):
    sources = [i for i, cls in enumerate(classes) if len(cls) >= 2]
    src = rng.choice(sources)
    u = rng.choice(classes[src])
    targets = [j for j, cls in enumerate(classes)
               if j != src and any(not set(u) & set(v) for v in cls)]
    dst = rng.choice(targets)
    classes[src].remove(u)
    classes[dst] = sorted(classes[dst] + [u])


def _tamper_complete(classes, rng):
    src = rng.choice([i for i, cls in enumerate(classes) if len(cls) >= 2])
    u = rng.choice(classes[src])
    classes[src].remove(u)
    classes.insert(rng.randrange(len(classes) + 1), [u])


def _tamper_grundy(classes, rng):
    singles = [i for i, cls in enumerate(classes) if len(cls) == 1]
    classes.insert(0, classes.pop(rng.choice(singles)))


_TAMPER = {"proper": _tamper_proper, "complete": _tamper_complete, "grundy": _tamper_grundy}


def make_certificate(name, n, form, tamper, seed):
    rng = random.Random(f"{seed}:{name}")
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    perm = dict(zip(range(1, n + 1), perm))
    classes = _relabel(load_base(n)["classes"], perm)
    if form == "plain":
        rng.shuffle(classes)
    else:
        classes.sort(key=len, reverse=True)
    if tamper:
        _TAMPER[tamper](classes, rng)
    return {"n": n, "k": 2, "classes": classes}


def write_inputs(seed, outdir):
    """Write the verify inputs for a seed; return [(name, n, path, tamper)]."""
    os.makedirs(outdir, exist_ok=True)
    made = []
    for name, n, form, tamper in VERIFY_SET:
        path = os.path.join(outdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(make_certificate(name, n, form, tamper, seed), fh,
                      separators=(",", ":"))
        made.append((name, n, path, tamper))
    return made


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True, help="tampering and relabeling seed")
    ap.add_argument("--out", required=True, help="directory to write the certificates to")
    args = ap.parse_args(argv)
    made = write_inputs(args.seed, args.out)
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump([{"name": name, "n": n, "file": os.path.basename(path), "tampered": tamper}
                   for name, n, path, tamper in made], fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
