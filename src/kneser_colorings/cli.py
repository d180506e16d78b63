"""Command-line entry point.

Exit codes: 0 success, 1 verification failure (witnesses in the JSON
output), 2 parameter-domain or usage errors.  Certificates are JSON and
name their own graph (verify's --graph, --n and --k only cross-check it),
bounds tables CSV, graph exports DOT or JSON.  Every command accepts
--seed; only geom's random layouts read it, and they are deterministic for a
fixed seed.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
from functools import cache

from . import achromatic, bounds as bounds_mod, designs, geometry, oracle as oracle_mod
from . import pseudoachromatic as pseudo
from .colorings import (_field, _int_lists, _json_doc, check_condition_C, coloring_from_json,
                        verify_coloring)
from .errors import CertificateError, ParameterDomainError, SearchExhaustedError
from .kneser import KneserGraph, MatchingGraph, build_kneser, kneser_order

# the --graph name of each certificate's graph type
_GRAPH_KINDS = {KneserGraph: "kneser", geometry.DisjointnessGraph: "dv", MatchingGraph: "matching"}
EXPORT_CAP = 1500  # vertices; a DOT export lists up to V^2/2 edges


def _add_common(p):
    p.add_argument("--out", help="write the primary output to this file instead of stdout")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for geom's random layouts (other commands ignore it)")


@cache
def _parser():
    """The argparse tree, built on the first call (not at import) and reused."""
    ap = argparse.ArgumentParser(prog="kneserc",
                                 description="Complete colorings of Kneser graphs: "
                                             "constructions, certificates, bounds, oracles.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a certified coloring")
    c.add_argument("--family", required=True,
                   choices=["kn2-achromatic", "kn2-psi-lower", "kn2-psi-tight", "matching"])
    c.add_argument("--n", type=int, help="n for the K(n,2) families")
    c.add_argument("--m", type=int, help="matching size for --family matching")
    c.add_argument("--grundy", action="store_true",
                   help="apply the size-ordered Grundy relabeling and certify it "
                        "(kn2-achromatic only; exit 1 where it is not Grundy)")
    _add_common(c)

    v = sub.add_parser("verify", help="verify a coloring certificate file")
    v.add_argument("--coloring", required=True)
    v.add_argument("--graph", choices=["kneser", "dv", "matching"],
                   help="cross-check the certificate's graph kind")
    v.add_argument("--n", type=int)
    v.add_argument("--k", type=int)
    v.add_argument("--checks", default="proper,complete",
                   help="comma list from proper,complete,grundy,dominating,condition-c")
    _add_common(v)

    b = sub.add_parser("bounds", help="CSV table of all bound formulas")
    b.add_argument("--n-max", type=int, required=True)
    b.add_argument("--k-max", type=int, default=2)
    _add_common(b)

    o = sub.add_parser("oracle", help="exact exponential-time parameters on K(n,k)")
    o.add_argument("--param", required=True, choices=["alpha", "psi", "grundy", "chi"])
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--k", type=int, required=True)
    o.add_argument("--cap", type=int, help="vertex cap override")
    _add_common(o)

    d = sub.add_parser("design", help="construct or check block designs")
    d.add_argument("--type", choices=["sts", "kts", "21-5-1", "1f", "1f-c4free"])
    d.add_argument("--n", type=int, help="points for sts/kts")
    d.add_argument("--order", type=int, help="order for 1-factorizations")
    d.add_argument("--check", help="verify a design JSON file instead of constructing")
    _add_common(d)

    g = sub.add_parser("geom", help="geometric disjointness graphs")
    g.add_argument("--op", required=True,
                   choices=["dv-coloring", "thrackle", "dvnk", "triangle-pairs"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, help="subset size for dvnk")
    g.add_argument("--layout", choices=["convex", "random", "random-convex"],
                   default="convex")
    _add_common(g)

    e = sub.add_parser("export", help="export K(n,k) as DOT or JSON")
    e.add_argument("--format", required=True, choices=["dot", "json"])
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    _add_common(e)
    return ap


def parse_invocation(argv):
    return _parser().parse_args(argv)


def _emit(plan, text: str) -> None:
    if plan.out:
        with open(plan.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _cmd_construct(plan) -> int:
    fam = plan.family
    if plan.grundy and fam != "kn2-achromatic":
        raise ParameterDomainError(f"--grundy applies to kn2-achromatic only, not {fam}")
    if fam == "matching":
        if plan.m is None:
            raise ParameterDomainError("--family matching needs --m")
        coloring = pseudo.matching_coloring(plan.m)
    else:
        if plan.n is None:
            raise ParameterDomainError(f"--family {fam} needs --n")
        if fam == "kn2-achromatic":
            coloring = achromatic.achromatic_coloring(plan.n, grundy=plan.grundy)
        elif fam == "kn2-psi-lower":
            coloring = pseudo.psi_lower_coloring(plan.n)
        else:
            coloring = pseudo.psi_tight_coloring(plan.n)
    _emit(plan, coloring.to_json())
    return 0


def _cmd_verify(plan) -> int:
    wanted = [c.strip() for c in plan.checks.split(",") if c.strip()]
    if not wanted:
        raise ParameterDomainError(f"--checks {plan.checks!r} names no check")
    with open(plan.coloring) as fh:
        coloring = coloring_from_json(fh.read())
    g = coloring.graph
    kind = _GRAPH_KINDS[type(g)]
    if plan.graph and plan.graph != kind:
        raise ParameterDomainError(f"certificate is for a {kind} graph, not {plan.graph}")
    for flag in ("n", "k"):
        want, have = getattr(plan, flag), getattr(g, flag, None)
        if want is None:
            continue
        if have is None:
            raise ParameterDomainError(f"--{flag} does not apply to a {kind} certificate")
        if want != have:
            raise ParameterDomainError(f"certificate has {flag}={have}, not {want}")
    cond_c = "condition-c" in wanted
    wanted = [c for c in wanted if c != "condition-c"] or ["proper", "complete"]
    rep = verify_coloring(coloring, checks=set(wanted))
    doc = rep.as_dict()
    ok = all(doc[c] for c in wanted)
    if cond_c:
        cc = check_condition_C(coloring)
        doc["condition_c"] = cc.as_dict()
        ok = ok and cc.passes
    _emit(plan, json.dumps(doc, sort_keys=True, check_circular=False))
    return 0 if ok else 1


def _cmd_bounds(plan) -> int:
    rows = bounds_mod.bounds_table(plan.n_max, plan.k_max)
    _emit(plan, bounds_mod.bounds_csv(rows))
    return 0


def _cmd_oracle(plan) -> int:
    fn = {"alpha": oracle_mod.exact_achromatic, "psi": oracle_mod.exact_pseudoachromatic,
          "grundy": oracle_mod.exact_grundy, "chi": oracle_mod.exact_chromatic}[plan.param]
    cap = plan.cap if plan.cap is not None else inspect.signature(fn).parameters["cap"].default
    # refuse before enumerating C(n,k) subsets
    oracle_mod.check_cap(kneser_order(plan.n, plan.k), cap, fn.__name__)
    res = fn(build_kneser(plan.n, plan.k), cap)
    doc = res.as_dict()
    doc.update({"n": plan.n, "k": plan.k})
    _emit(plan, json.dumps(doc, sort_keys=True, check_circular=False))
    return 0


def _design_doc(design: designs.Design, classes=None):
    doc = {"n": design.n, "blocks": design.blocks}
    if classes is not None:
        doc["classes"] = classes
    return doc


def _cmd_design(plan) -> int:
    if plan.check:
        if (plan.type, plan.n, plan.order) != (None, None, None):
            raise ParameterDomainError("--type, --n and --order do not apply with --check")
        with open(plan.check) as fh:
            doc = _json_doc(fh.read())
        if not isinstance(doc, dict) or type(doc.get("n")) is not int or doc["n"] < 1:
            raise ParameterDomainError("a design must be a JSON object with an integer n >= 1")
        blocks = _int_lists(_field(doc, "blocks"), "blocks")
        blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
        if not blocks or min(map(len, blocks)) < 2:
            raise ParameterDomainError("a design needs at least one block, "
                                       "and every block at least two points")
        n = doc["n"]
        k = len(blocks[0])
        b = len(blocks)
        r = b * k // n
        lam = r * (k - 1) // (n - 1) if n > 1 else 0
        rep = designs.verify_design(designs.Design(n=n, blocks=blocks, k=k, r=r, lam=lam))
        _emit(plan, json.dumps(rep.as_dict(), sort_keys=True, check_circular=False))
        return 0 if rep.passed else 1
    if plan.type is None:
        raise ParameterDomainError("design needs --type or --check")
    if plan.type == "sts":
        if plan.n is None:
            raise ParameterDomainError("design --type sts needs --n")
        doc = _design_doc(designs.construct_sts(plan.n))
    elif plan.type == "kts":
        if plan.n is None:
            raise ParameterDomainError("design --type kts needs --n")
        res = designs.construct_kts(plan.n)
        index = {blk: i for i, blk in enumerate(res.design.blocks)}
        doc = _design_doc(res.design, classes=[[index[blk] for blk in cls]
                                               for cls in res.classes])
    elif plan.type == "21-5-1":
        doc = _design_doc(designs.construct_design_21_5_1())
    else:
        if plan.order is None:
            raise ParameterDomainError("1-factorization needs --order")
        if plan.type == "1f":
            res = designs.construct_one_factorization(plan.order)
        else:
            res = designs.c4_free_one_factorization(plan.order)
        doc = {"order": res.design.n, "factors": res.classes}
    _emit(plan, json.dumps(doc, sort_keys=True, check_circular=False))
    return 0


def _cmd_geom(plan) -> int:
    if plan.k is not None and plan.op != "dvnk":
        raise ParameterDomainError(f"--k applies to --op dvnk only, not {plan.op}")
    n = plan.n
    if n > geometry.POINT_CAP:  # refused before a point is sampled or scanned
        raise ParameterDomainError(f"geom is declared for n <= {geometry.POINT_CAP} points, "
                                   f"got {n}")
    if plan.layout == "convex":
        ps = geometry.convex_position_points(n)
    elif plan.layout == "random":
        ps = geometry.random_general_position(n, seed=plan.seed)
    else:
        ps = geometry.random_convex_position(n, seed=plan.seed)
    if plan.op == "dv-coloring":
        _emit(plan, geometry.dv_achromatic_coloring(ps).to_json())
        return 0
    if plan.op == "thrackle":
        val = geometry.thrackle_max_edges(ps)
        _emit(plan, json.dumps({"n": n, "layout": plan.layout, "thrackle_max_edges": val},
                               sort_keys=True, check_circular=False))
        return 0
    if plan.op == "dvnk":
        if plan.k is None:
            raise ParameterDomainError("geom --op dvnk needs --k")
        _emit(plan, geometry.dvnk_lower_coloring(ps, plan.k).to_json())
        return 0
    rep = geometry.triangle_pair_check(ps)
    _emit(plan, json.dumps(rep.as_dict(), sort_keys=True, check_circular=False))
    return 0 if rep.passes else 1


def _cmd_export(plan) -> int:
    if kneser_order(plan.n, plan.k) > EXPORT_CAP:  # refused before K(n,k) is built
        raise ParameterDomainError(f"export is declared for K(n,k) with at most {EXPORT_CAP} "
                                   f"vertices, K({plan.n},{plan.k}) has more")
    g = build_kneser(plan.n, plan.k)
    if plan.format == "json":
        _emit(plan, g.vertices_json())
    elif plan.out:
        with open(plan.out, "w") as fh:
            fh.writelines(g.dot_lines())
    else:
        sys.stdout.writelines(g.dot_lines())
    return 0


_DISPATCH = {"construct": _cmd_construct, "verify": _cmd_verify, "bounds": _cmd_bounds,
             "oracle": _cmd_oracle, "design": _cmd_design, "geom": _cmd_geom,
             "export": _cmd_export}


def execute(plan) -> int:
    return _DISPATCH[plan.command](plan)


def main(argv=None) -> int:
    try:
        plan = parse_invocation(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return 2 if exc.code not in (0, None) else 0
    try:
        return execute(plan)
    except (ParameterDomainError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except (CertificateError, SearchExhaustedError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
