"""Command-line entry point.

Exit codes: 0 success, 1 verification failure (witnesses in the JSON
output), 2 parameter-domain or usage errors; an error is one JSON document
on stderr.  COMMANDS is the command line: each command's help and flags,
each flag's type, choices, default and required mark.  parse_invocation
reads argv against it in one pass, exact flag names only, as --flag value or
--flag=value; any other argument, a bad value or a missing required flag is
a usage error (ParameterDomainError), and -h or --help prints the table's
help to stdout.  Certificates are JSON and name their own graph (verify's
--graph, --n and --k only cross-check it), bounds tables CSV, graph exports
DOT or JSON.  _emit writes every primary output but a DOT export to
stdout: text as given, and a document (a report, a design, an oracle value)
as sorted-key JSON, the handlers' one serializer.  Every command accepts
--seed; only geom's random layouts read it, and they are deterministic for a
fixed seed.
"""
from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import achromatic, bounds as bounds_mod, designs, geometry, oracle as oracle_mod
from . import pseudoachromatic as pseudo
from .colorings import (_field, _int_lists, _json_doc, check_condition_C, coloring_from_json,
                        verify_coloring)
from .errors import CertificateError, ParameterDomainError, SearchExhaustedError
from .kneser import KneserGraph, MatchingGraph, build_kneser, kneser_order

# the --graph name of each certificate's graph type
_GRAPH_KINDS = {KneserGraph: "kneser", geometry.DisjointnessGraph: "dv", MatchingGraph: "matching"}
EXPORT_CAP = 1500  # vertices; a DOT export lists up to V^2/2 edges


# a flag's type is int, str or bool (a switch: False unless given)
Flag = namedtuple("Flag", "type choices default required help", defaults=(None, None, False, ""))
_COMMON = {"--out": Flag(str, help="write the primary output to this file instead of stdout"),
           "--seed": Flag(int, default=0,
                          help="seed for geom's random layouts (other commands ignore it)")}
COMMANDS = {  # command -> (help, flags)
    "construct": ("build a certified coloring", {
        "--family": Flag(str, ("kn2-achromatic", "kn2-psi-lower", "kn2-psi-tight", "matching"),
                         required=True),
        "--n": Flag(int, help="n for the K(n,2) families"),
        "--m": Flag(int, help="matching size for --family matching"),
        "--grundy": Flag(bool, default=False,
                         help="apply the size-ordered Grundy relabeling and certify it "
                              "(kn2-achromatic only; exit 1 where it is not Grundy)"), **_COMMON}),
    "verify": ("verify a coloring certificate file", {
        "--coloring": Flag(str, required=True),
        "--graph": Flag(str, ("kneser", "dv", "matching"),
                        help="cross-check the certificate's graph kind"),
        "--n": Flag(int), "--k": Flag(int),
        "--checks": Flag(str, default="proper,complete",
                         help="comma list from proper,complete,grundy,dominating,condition-c"),
        **_COMMON}),
    "bounds": ("CSV table of all bound formulas", {
        "--n-max": Flag(int, required=True), "--k-max": Flag(int, default=2), **_COMMON}),
    "oracle": ("exact exponential-time parameters on K(n,k)", {
        "--param": Flag(str, ("alpha", "psi", "grundy", "chi"), required=True),
        "--n": Flag(int, required=True), "--k": Flag(int, required=True),
        "--cap": Flag(int, help="vertex cap override"), **_COMMON}),
    "design": ("construct or check block designs", {
        "--type": Flag(str, ("sts", "kts", "21-5-1", "1f", "1f-c4free")),
        "--n": Flag(int, help="points for sts/kts"),
        "--order": Flag(int, help="order for 1-factorizations"),
        "--check": Flag(str, help="verify a design JSON file instead of constructing"), **_COMMON}),
    "geom": ("geometric disjointness graphs", {
        "--op": Flag(str, ("dv-coloring", "thrackle", "dvnk", "triangle-pairs"), required=True),
        "--n": Flag(int, required=True), "--k": Flag(int, help="subset size for dvnk"),
        "--layout": Flag(str, ("convex", "random", "random-convex"), "convex"), **_COMMON}),
    "export": ("export K(n,k) as DOT or JSON", {
        "--format": Flag(str, ("dot", "json"), required=True),
        "--n": Flag(int, required=True), "--k": Flag(int, required=True), **_COMMON}),
}
# argparse's reading of a token after a flag: "-", a negative number and a token
# with a space are values, unless a flag name stands before its "="
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def parse_invocation(argv):
    """The plan of one call, read from COMMANDS in one pass: the command and
    every one of its flags, as given or by default."""
    command, *tokens = argv or [""]
    if command in ("-h", "--help"):
        return SimpleNamespace(command="help", topic=None)
    if command not in COMMANDS:
        raise ParameterDomainError(f"kneserc needs a command ({', '.join(COMMANDS)}), "
                                   f"not {command!r}")
    flags = COMMANDS[command][1]
    values = {name: flag.default for name, flag in flags.items()}
    tokens = iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            return SimpleNamespace(command="help", topic=command)
        name, eq, value = token.partition("=")
        if name not in flags:
            raise ParameterDomainError(f"{command} has no flag or argument {token!r}")
        flag = flags[name]
        if flag.type is bool and eq:
            raise ParameterDomainError(f"{name} takes no value")
        if flag.type is not bool and not eq and (
                (value := next(tokens, None)) is None or value.partition("=")[0] in flags
                or value.startswith("-") and value != "-" and " " not in value
                and not _NEGATIVE.match(value)):
            raise ParameterDomainError(f"{name} needs a value")
        try:
            values[name] = value = True if flag.type is bool else flag.type(value)
        except ValueError:
            raise ParameterDomainError(f"{name} takes an integer, not {value!r}") from None
        if flag.choices and value not in flag.choices:
            raise ParameterDomainError(f"{name} takes one of {', '.join(flag.choices)}, "
                                       f"not {value!r}")
    if missing := [name for name, flag in flags.items() if flag.required and values[name] is None]:
        raise ParameterDomainError(f"{command} needs {', '.join(missing)}")
    return SimpleNamespace(command=command,
                           **{name[2:].replace("-", "_"): v for name, v in values.items()})


def _cmd_help(plan) -> int:
    """Print the commands, or one command's flags, from COMMANDS."""
    if plan.topic is None:
        text = ("Complete colorings of Kneser graphs: constructions, certificates, bounds, "
                "oracles.\ncommands (each takes --help):")
        rows = [(name, line) for name, (line, _) in COMMANDS.items()]
    else:
        text, flags, rows = *COMMANDS[plan.topic], []
        for name, f in flags.items():
            value = ("" if f.type is bool else " {%s}" % ",".join(f.choices) if f.choices
                     else f" {f.type.__name__.upper()}")
            notes = [f.help, "required" if f.required else "",
                     "" if f.type is bool or f.default is None else f"default {f.default}"]
            rows.append((name + value, "; ".join(filter(None, notes))))
    print(f"usage: kneserc {plan.topic or 'COMMAND'} [--flag value | --flag=value ...]", text,
          *(f"  {head}  {notes}".rstrip() for head, notes in rows), sep="\n")
    return 0


def _emit(plan, doc) -> None:
    """Write text, or a document as sorted-key JSON, to --out or stdout."""
    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True, check_circular=False)
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
        if plan.n is not None:
            raise ParameterDomainError("--n applies to the kn2-* families only, not matching")
        if plan.m is None:
            raise ParameterDomainError("--family matching needs --m")
        coloring = pseudo.matching_coloring(plan.m)
    else:
        if plan.m is not None:
            raise ParameterDomainError(f"--m applies to --family matching only, not {fam}")
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
    _emit(plan, doc)
    return 0 if ok else 1


def _cmd_bounds(plan) -> int:
    rows = bounds_mod.bounds_table(plan.n_max, plan.k_max)
    _emit(plan, bounds_mod.bounds_csv(rows))
    return 0


def _cmd_oracle(plan) -> int:
    fn = {"alpha": oracle_mod.exact_achromatic, "psi": oracle_mod.exact_pseudoachromatic,
          "grundy": oracle_mod.exact_grundy, "chi": oracle_mod.exact_chromatic}[plan.param]
    if (cap := plan.cap) is None:
        cap = oracle_mod.CHI_CAP if plan.param == "chi" else oracle_mod.SEARCH_CAP
    # refuse before enumerating C(n,k) subsets
    oracle_mod.check_cap(kneser_order(plan.n, plan.k, cap), cap, fn.__name__)
    res = fn(build_kneser(plan.n, plan.k), cap)
    _emit(plan, {**res.as_dict(), "n": plan.n, "k": plan.k})
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
        _emit(plan, rep.as_dict())
        return 0 if rep.passed else 1
    if plan.type is None:
        raise ParameterDomainError("design needs --type or --check")
    if plan.n is not None and plan.type not in ("sts", "kts"):
        raise ParameterDomainError(f"--n applies to --type sts and kts only, not {plan.type}")
    if plan.order is not None and plan.type not in ("1f", "1f-c4free"):
        raise ParameterDomainError(f"--order applies to --type 1f and 1f-c4free only, "
                                   f"not {plan.type}")
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
    _emit(plan, doc)
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
        _emit(plan, {"n": n, "layout": plan.layout, "thrackle_max_edges": val})
        return 0
    if plan.op == "dvnk":
        if plan.k is None:
            raise ParameterDomainError("geom --op dvnk needs --k")
        _emit(plan, geometry.dvnk_lower_coloring(ps, plan.k).to_json())
        return 0
    rep = geometry.triangle_pair_check(ps)
    _emit(plan, rep.as_dict())
    return 0 if rep.passes else 1


def _cmd_export(plan) -> int:
    if kneser_order(plan.n, plan.k, EXPORT_CAP) is None:  # refused before K(n,k) is built
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
             "export": _cmd_export, "help": _cmd_help}


def main(argv=None) -> int:
    try:
        plan = parse_invocation(argv if argv is not None else sys.argv[1:])
        return _DISPATCH[plan.command](plan)
    except (CertificateError, SearchExhaustedError, ParameterDomainError, OSError,
            UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1 if isinstance(exc, (CertificateError, SearchExhaustedError)) else 2


if __name__ == "__main__":
    sys.exit(main())
