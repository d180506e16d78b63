"""kneserc's command line, read from cli.COMMANDS.

The plan is the one the argparse tree it replaced (conftest.reference_parser)
gives for every argv that tree accepts with full flag names; every argv that
tree refuses is a ParameterDomainError document on stderr with exit 2, and so
is an abbreviated flag, which the tree took for the flag it abbreviates.
Help comes from the table.
"""
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from kneser_colorings import cli
from kneser_colorings.errors import ParameterDomainError

from conftest import reference_parser
from test_golden import ERRORS, GOLDEN, VERIFY_REPORTS

CMD = [sys.executable, "-m", "kneser_colorings"]
ALL_CHECKS = "proper,complete,grundy,dominating,condition-c"


def reference_plan(argv):
    """The reference tree's plan of argv as a dict, or None where it exits 2."""
    try:
        return vars(reference_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 2, argv
        return None


def _readme_commands():
    text = (Path(__file__).parents[1] / "README.md").read_text().replace("\\\n", " ")
    return [line.removeprefix("kneserc ") for line in text.splitlines()
            if line.startswith("kneserc ")]


GOLDEN_ARGV = [
    *(f"{command} --out out" for command in GOLDEN),
    *(command for command in GOLDEN if command.startswith("export")),
    *ERRORS,
    *(f"{construct} --out cert" for construct, _, _, _ in VERIFY_REPORTS.values()),
    *(f"verify --checks {checks} --coloring cert --out out"
      for _, checks, _, _ in VERIFY_REPORTS.values()),
    "construct --family kn2-achromatic --n 10 --out cert",
    f"verify --checks {ALL_CHECKS} --coloring cert --out out",
    "design --check design.json --out out",
    "oracle --param psi --n 5 --k 2 --out out",
]

# the kneserc operations of perfbench's three workloads at seed 1, as
# perfbench/workloads.py builds them ({outdir} written as out)
PERFBENCH_SEED_1 = [
    "construct --family kn2-achromatic --n 58 --out out/achromatic-58.json",
    "construct --family kn2-achromatic --n 59 --out out/achromatic-59.json",
    "construct --family kn2-achromatic --n 60 --grundy --out out/achromatic-60-grundy.json",
    "construct --family kn2-achromatic --n 61 --grundy --out out/achromatic-61-grundy.json",
    "construct --family kn2-achromatic --n 62 --grundy --out out/achromatic-62-grundy.json",
    "construct --family kn2-achromatic --n 63 --out out/achromatic-63.json",
    "construct --family kn2-psi-lower --n 7 --seed 0 --out out/psi-lower-7.json",
    "construct --family kn2-psi-lower --n 8 --seed 0 --out out/psi-lower-8.json",
    "construct --family kn2-psi-lower --n 9 --seed 0 --out out/psi-lower-9.json",
    "construct --family kn2-psi-lower --n 10 --seed 0 --out out/psi-lower-10.json",
    "construct --family kn2-psi-lower --n 11 --seed 0 --out out/psi-lower-11.json",
    "construct --family kn2-psi-lower --n 12 --seed 0 --out out/psi-lower-12.json",
    "construct --family kn2-psi-lower --n 13 --seed 0 --out out/psi-lower-13.json",
    "construct --family kn2-psi-lower --n 14 --seed 0 --out out/psi-lower-14.json",
    "construct --family kn2-psi-lower --n 15 --seed 0 --out out/psi-lower-15.json",
    "construct --family kn2-psi-lower --n 16 --seed 0 --out out/psi-lower-16.json",
    "construct --family kn2-psi-lower --n 17 --seed 0 --out out/psi-lower-17.json",
    "construct --family kn2-psi-lower --n 18 --seed 0 --out out/psi-lower-18.json",
    "construct --family kn2-psi-lower --n 19 --seed 0 --out out/psi-lower-19.json",
    "construct --family kn2-psi-lower --n 20 --seed 0 --out out/psi-lower-20.json",
    "construct --family kn2-psi-lower --n 21 --seed 0 --out out/psi-lower-21.json",
    "construct --family kn2-psi-lower --n 22 --seed 0 --out out/psi-lower-22.json",
    "construct --family kn2-psi-lower --n 23 --seed 0 --out out/psi-lower-23.json",
    "construct --family kn2-psi-lower --n 24 --seed 0 --out out/psi-lower-24.json",
    "construct --family kn2-psi-lower --n 25 --seed 0 --out out/psi-lower-25.json",
    "construct --family kn2-psi-lower --n 26 --seed 0 --out out/psi-lower-26.json",
    "construct --family kn2-psi-lower --n 27 --seed 0 --out out/psi-lower-27.json",
    "construct --family kn2-psi-lower --n 28 --seed 0 --out out/psi-lower-28.json",
    "construct --family kn2-psi-lower --n 29 --seed 0 --out out/psi-lower-29.json",
    "construct --family kn2-psi-lower --n 30 --seed 0 --out out/psi-lower-30.json",
    "construct --family kn2-psi-lower --n 31 --seed 0 --out out/psi-lower-31.json",
    "construct --family kn2-psi-lower --n 32 --seed 0 --out out/psi-lower-32.json",
    "construct --family kn2-psi-lower --n 33 --seed 0 --out out/psi-lower-33.json",
    "construct --family kn2-psi-lower --n 34 --seed 0 --out out/psi-lower-34.json",
    "construct --family kn2-psi-lower --n 35 --seed 0 --out out/psi-lower-35.json",
    "construct --family kn2-psi-lower --n 36 --seed 0 --out out/psi-lower-36.json",
    "construct --family kn2-psi-lower --n 37 --seed 0 --out out/psi-lower-37.json",
    "construct --family kn2-psi-lower --n 38 --seed 0 --out out/psi-lower-38.json",
    "construct --family kn2-psi-lower --n 39 --seed 0 --out out/psi-lower-39.json",
    "construct --family kn2-psi-lower --n 40 --seed 0 --out out/psi-lower-40.json",
    "construct --family kn2-psi-lower --n 41 --seed 0 --out out/psi-lower-41.json",
    "construct --family kn2-psi-lower --n 42 --seed 0 --out out/psi-lower-42.json",
    "construct --family kn2-psi-lower --n 43 --seed 0 --out out/psi-lower-43.json",
    "construct --family kn2-psi-lower --n 44 --seed 0 --out out/psi-lower-44.json",
    "construct --family kn2-psi-tight --n 20 --out out/psi-tight-20.json",
    "design --type kts --n 21 --out out/kts-21.json",
    "design --type kts --n 51 --out out/kts-51.json",
    "design --type kts --n 63 --out out/kts-63.json",
    "geom --op dv-coloring --n 21 --layout random --seed 1 --out out/dv-sts-21.json",
    "geom --op dv-coloring --n 20 --layout convex --out out/dv-convex-20.json",
    "geom --op dvnk --n 16 --k 3 --layout random --seed 1 --out out/dvnk-16-3.json",
    "geom --op triangle-pairs --n 12 --layout random --seed 1 --out out/triangle-pairs-12.json",
    ("verify --graph kneser --n 63 --k 2 --coloring inputs/plain-63.json "
     "--checks proper,complete,grundy,dominating,condition-c "
     "--out out/verify-plain-63.json"),
    ("verify --graph kneser --n 66 --k 2 --coloring inputs/grundy-66.json "
     "--checks proper,complete,grundy,dominating,condition-c "
     "--out out/verify-grundy-66.json"),
    ("verify --graph kneser --n 70 --k 2 --coloring inputs/plain-70.json "
     "--checks proper,complete,grundy,dominating,condition-c "
     "--out out/verify-plain-70.json"),
    ("verify --graph kneser --n 78 --k 2 --coloring inputs/grundy-78.json "
     "--checks proper,complete,grundy,dominating,condition-c "
     "--out out/verify-grundy-78.json"),
    ("verify --graph kneser --n 62 --k 2 --coloring inputs/tampered-proper-62.json "
     "--checks proper,complete,grundy,dominating,condition-c "
     "--out out/verify-tampered-proper-62.json"),
    ("verify --graph kneser --n 60 --k 2 --coloring inputs/tampered-complete-60.json "
     "--checks proper,complete,grundy,dominating,condition-c "
     "--out out/verify-tampered-complete-60.json"),
    ("verify --graph kneser --n 61 --k 2 --coloring inputs/tampered-grundy-61.json "
     "--checks proper,complete,grundy,dominating,condition-c "
     "--out out/verify-tampered-grundy-61.json"),
    "oracle --param alpha --n 6 --k 3 --cap 20 --out out/alpha-K63.json",
    "oracle --param psi --n 6 --k 3 --cap 20 --out out/psi-K63.json",
    "oracle --param alpha --n 6 --k 2 --out out/alpha-K62.json",
    "oracle --param psi --n 6 --k 2 --out out/psi-K62.json",
    "oracle --param grundy --n 6 --k 2 --out out/grundy-K62.json",
    "oracle --param alpha --n 5 --k 2 --out out/alpha-K52.json",
    "oracle --param psi --n 5 --k 2 --out out/psi-K52.json",
    "oracle --param grundy --n 5 --k 2 --out out/grundy-K52.json",
    "oracle --param chi --n 5 --k 2 --out out/chi-K52.json",
    "oracle --param chi --n 7 --k 2 --out out/chi-K72.json",
    "oracle --param chi --n 7 --k 3 --cap 35 --out out/chi-K73.json",
]

# a minimal accepted argv of each command
MINIMAL = {"construct": "construct --family kn2-achromatic --n 9",
           "verify": "verify --coloring cert.json", "bounds": "bounds --n-max 5",
           "oracle": "oracle --param chi --n 5 --k 2", "design": "design --type sts --n 7",
           "geom": "geom --op thrackle --n 6", "export": "export --format json --n 5 --k 2"}

EDGE_CASES = [
    "construct --family kn2-achromatic --n=7",
    "construct --family=matching --m=4 --out=a=b.json",
    "bounds --n-max -5",
    "bounds --n-max=-5 --k-max -0",
    "bounds --n-max 5 --n-max 6 --k-max=3 --k-max 4",  # the last one wins
    "construct --family kn2-achromatic --n 12 --grundy",
    "construct --grundy --family kn2-psi-lower --grundy --n 12 --family kn2-achromatic",
    "bounds --n-max ' 7 ' --k-max 1_0",  # int() accepts both
    "verify --coloring - --checks -1.5",  # "-" and a negative number are values
    "verify --coloring '-x y' --graph dv",  # so is a token with a space
    "verify --coloring '' --checks=--n --n 3 --k 2",
    "geom --op dvnk --n 8 --k 2 --layout random-convex --seed 5",
    *(f"{argv} --seed 7" for argv in MINIMAL.values()),
    *(f"{argv} --seed=-2" for argv in MINIMAL.values()),
]

ACCEPTED = GOLDEN_ARGV + _readme_commands() + PERFBENCH_SEED_1 + EDGE_CASES


@pytest.mark.parametrize("argv", ACCEPTED)
def test_plan_is_the_reference_plan(argv):
    argv = shlex.split(argv)
    assert vars(cli.parse_invocation(argv)) == reference_plan(argv)


def test_accepted_argv_cover_every_command_and_flag():
    seen = {(argv[0], token.partition("=")[0])
            for argv in map(shlex.split, ACCEPTED) for token in argv[1:]}
    assert {(command, name) for command, (_, flags) in cli.COMMANDS.items()
            for name in flags} <= seen
    assert len(PERFBENCH_SEED_1) == 70 and len(_readme_commands()) == 19


def assert_refused(argv, tmp_path, capsys):
    """cli.main refuses argv, with --out appended, as a usage error: exit 2, one
    ParameterDomainError document on stderr, nothing on stdout, no --out file."""
    out = tmp_path / "refused.json"
    argv = [*argv, "--out", str(out)]
    assert reference_plan(argv) is None, argv
    with pytest.raises(ParameterDomainError):  # so main runs no command
        cli.parse_invocation(argv)
    capsys.readouterr()
    assert cli.main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1, argv
    assert json.loads(captured.err)["error"] == "ParameterDomainError", argv
    assert not out.exists(), argv


REFUSED = [
    "", "bogus", "Bounds --n-max 5", "--out x.json bounds --n-max 5",
    "bounds", "oracle --param alpha --n 5",  # a required flag missing
    "bounds --n-max five", "bounds --n-max 1.5", "bounds --n-max=", "bounds --n-max 0x10",
    "construct --family bogus --n 7", "geom --op thrackle --n 6 --layout Convex",
    "bounds --n-max", "bounds --n-max --k-max 3", "bounds --n-max -h",
    "verify --coloring --", "verify --coloring -x",
    "construct --family kn2-achromatic --n 9 --grundy=1",
    "construct --family kn2-achromatic --n 9 --grundy=",
    "bounds --n-max 5 extra", "bounds extra --n-max 5", "bounds --n-max 5 --", "bounds --n-max 5 -",
    "bounds --n-max 5 --threads 2", "bounds --n-max 5 -n 3", "bounds --N-MAX 5",
    "verify --coloring c.json --param alpha",  # another command's flag
]


@pytest.mark.parametrize("argv", REFUSED)
def test_argv_the_reference_refuses_is_a_usage_error(argv, tmp_path, capsys):
    assert_refused(shlex.split(argv), tmp_path, capsys)


@pytest.mark.parametrize("argv", ["bounds --n 5", "construct --fam kn2-achromatic --n 7",
                                  "oracle --par alpha --n 5 --k 2", "design --typ sts --n 7"])
def test_abbreviated_flag_exits_2(argv, tmp_path, capsys):
    """The reference took each abbreviation for the flag it abbreviates and ran
    the command; only an exact flag name is a flag."""
    argv = argv.split()
    assert reference_plan(argv) is not None
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    abbreviation = next(token for token in argv if token.startswith("--")
                        and token not in cli.COMMANDS[argv[0]][1])
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err) == {
        "error": "ParameterDomainError",
        "message": f"{argv[0]} has no flag or argument {abbreviation!r}"}


def test_argv_drawn_from_the_table_parse_as_the_reference(tmp_path, capsys):
    """Random argv over one command's flags, in any order and either form,
    some repeated or missing, with good and bad values: the same plan as the
    reference, or a usage error where the reference refuses."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def tokens(name, flag, good=False):
        if flag.type is bool:
            return st.just([name]) if good else st.sampled_from([[name], [name + "=x"]])
        if flag.choices:
            values = st.sampled_from(flag.choices if good else
                                     [*flag.choices, "bogus", flag.choices[0][:2]])
        elif flag.type is int:
            values = st.integers(-50, 10**6).map(str)
            if not good:
                values |= st.sampled_from(["x", "1.5", "", " 7 "])
        else:  # no space, so a value reads as a flag exactly where argparse reads one
            values = st.text(alphabet="ab=.0" if good else "ab-=.0", max_size=5)
        return values.flatmap(lambda v: st.sampled_from([[name, v], [f"{name}={v}"]]))

    def argv_of(command):
        flags = cli.COMMANDS[command][1]
        required = [tokens(name, flag, good=True) for name, flag in flags.items() if flag.required]
        extra = st.lists(st.one_of(*(tokens(name, flag, good) for name, flag in flags.items()
                                     for good in (True, False)),
                                   st.sampled_from([["x"], ["--bogus", "1"], ["-"]])), max_size=4)
        # the required flags with good values, or none, among other flags in any order
        pieces = st.one_of(st.tuples(*required, extra), st.tuples(extra)).flatmap(
            lambda drawn: st.permutations([*drawn[:-1], *drawn[-1]]))
        return pieces.map(lambda ps: [command] + [token for piece in ps for token in piece])

    @hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @hypothesis.given(argv=st.sampled_from(list(cli.COMMANDS)).flatmap(argv_of))
    def case(argv):
        plan = reference_plan(argv)
        if plan is None:
            assert_refused(argv, tmp_path, capsys)
        else:
            assert vars(cli.parse_invocation(argv)) == plan

    case()


HELP = [[flag] for flag in ("-h", "--help")] + [
    [command, flag] for command in cli.COMMANDS for flag in ("-h", "--help")]


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_lists_the_table(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    # --out before or after the help flag writes nothing
    argv = [*argv, "--out", str(out)] if len(argv) == 1 else [argv[0], "--out", str(out), argv[1]]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and not out.exists()
    if len(argv) == 3:
        names = list(cli.COMMANDS)
    else:
        flags = cli.COMMANDS[argv[0]][1]
        names = [*flags, *(c for flag in flags.values() for c in flag.choices or ())]
    assert all(name in captured.out for name in names)
    r = subprocess.run(CMD + argv, capture_output=True, text=True)
    assert (r.returncode, r.stdout, r.stderr) == (0, captured.out, "")
    assert not out.exists()
