"""The benchmark's workloads: posetlab CLI commands and the answers they must give.

Every input is fixed except the corpora of `verify paper`, which come from
the benchmark's seed.  `commands()` returns a workload's timed commands in
the order one pass runs them; `setup_commands()` returns the untimed
commands that write the input files they read.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

Y12_PAIR = ("named:y(1,2)", "named:y'(1,2)")
Y22_PAIR = ("named:y(2,2)", "named:y'(2,2)")
CHAIN2 = ("named:chain(2)",)

# No-work CLI process whose wall time is reported as setup_s.
SETUP_PROBE = ("poset", "gen", "--kind", "chain", "--params", "1")


@dataclass(frozen=True)
class Command:
    """One CLI process of a workload and the answer it has to give."""

    name: str                 # instance name used in metric names
    argv: tuple               # arguments after `posetlab`
    forbid: tuple             # poset specs, for the in-process witness re-check
    mode: str                 # library mode name
    expect: dict = field(default_factory=dict)  # report key -> required value
    witness: str | None = None  # path the command writes its witness to
    twin_of: str | None = None  # name of the command whose witness must match byte for byte


def _lib_mode(mode):
    return "rank_preserving" if mode == "rp" else mode


def _forbid_args(specs):
    out = []
    for spec in specs:
        out += ["--forbid", spec]
    return out


def _search(name, n, forbid, mode, outdir, workers=1, budget_ms=None, expect=None, twin_of=None):
    witness = str(Path(outdir) / f"wit-{name}.txt")
    argv = ["search", "la", "--n", str(n), *_forbid_args(forbid), "--mode", mode,
            "--workers", str(workers), "--emit-witness", witness]
    if budget_ms is not None:
        argv += ["--budget-ms", str(budget_ms)]
    return Command(name, tuple(argv), forbid, _lib_mode(mode), expect or {}, witness, twin_of)


def _check(name, what, family_file, forbid, mode, workdir):
    argv = ["check", what, "--family", str(Path(workdir) / family_file),
            *_forbid_args(forbid), "--mode", mode]
    return Command(name, tuple(argv), forbid, _lib_mode(mode), {what: True})


WORKLOADS = ("exact-search", "budget-search", "detect", "verify")

# Per-command end-to-end metric prefix, by workload.
PER_COMMAND_METRIC = {"exact-search": "solve_s", "detect": "check_s"}

_FAMILIES = {
    "m11.txt": ("--kind", "middle", "--n", "11", "--h", "2"),
    "m8.txt": ("--kind", "middle", "--n", "8", "--h", "2"),
    "m12.txt": ("--kind", "middle", "--n", "12", "--h", "2"),
    "f23n12.txt": ("--kind", "f23", "--n", "12"),
}


def setup_commands(workload, workdir):
    """Untimed CLI commands that write the workload's input files."""
    if workload != "detect":
        return []
    return [("family", "gen", *args, "--out", str(Path(workdir) / fname))
            for fname, args in _FAMILIES.items()]


def commands(workload, seed, workdir, outdir=None):
    """Timed commands of one pass; family files are read from workdir and
    witnesses written to outdir (default: workdir)."""
    outdir = outdir or workdir
    if workload == "exact-search":
        return [
            _search("y12pair-n5-weak", 5, Y12_PAIR, "weak", outdir,
                    expect={"value": 12, "exact": True}),
            _search("chain2-n5-weak", 5, CHAIN2, "weak", outdir,
                    expect={"value": 10, "exact": True}),
            # the pinned n = 4 rank-preserving value
            _search("y22pair-n4-rp", 4, Y22_PAIR, "rp", outdir,
                    expect={"value": 10, "exact": True}),
            _search("y12pair-n5-weak-w2", 5, Y12_PAIR, "weak", outdir, workers=2,
                    expect={"value": 12, "exact": True}, twin_of="y12pair-n5-weak"),
        ]
    if workload == "budget-search":
        return [_search("y22pair-n5-weak-15s", 5, Y22_PAIR, "weak", outdir,
                        budget_ms=15000, expect={"exact": False})]
    if workload == "detect":
        return [
            _check("sat-m11-y22pair-rp", "saturated", "m11.txt", Y22_PAIR, "rp", workdir),
            _check("sat-m8-y22pair-weak", "saturated", "m8.txt", Y22_PAIR, "weak", workdir),
            _check("free-m12-t3r3-weak", "free", "m12.txt", ("named:t3(3)",), "weak", workdir),
            _check("free-m12-y22-induced", "free", "m12.txt", ("named:y(2,2)",), "induced", workdir),
            _check("free-f23n12-y12y13-weak", "free", "f23n12.txt",
                   ("named:y(1,2)", "named:y'(1,3)"), "weak", workdir),
        ]
    if workload == "verify":
        argv = ("verify", "paper", "--suite", "all", "--max-n", "4",
                "--seed", str(seed), "--workers", "1")
        return [Command("paper-all-n4", argv, (), "weak", {"pass": True, "seed": seed})]
    raise ValueError(f"unknown workload {workload!r}")


def check_answer(cmd, returncode, stdout):
    """Problems with one command's exit code and JSON report; empty when right.

    Returns (problems, report) where report is the parsed JSON or None.
    """
    if returncode != 0:
        return [f"{cmd.name}: exit code {returncode}"], None
    try:
        report = json.loads(stdout)
    except ValueError:
        return [f"{cmd.name}: output is not JSON"], None
    problems = [
        f"{cmd.name}: {key} = {report.get(key)!r}, expected {want!r}"
        for key, want in cmd.expect.items()
        if report.get(key) != want
    ]
    if cmd.witness is not None:
        if report.get("witnessSize") != report.get("value") or not report.get("value"):
            problems.append(f"{cmd.name}: witnessSize {report.get('witnessSize')!r} "
                            f"!= value {report.get('value')!r}")
        if not Path(cmd.witness).is_file():
            problems.append(f"{cmd.name}: no witness file")
    return problems, report


def check_twins(cmds):
    """Problems where a command's witness differs from its twin's."""
    by_name = {c.name: c for c in cmds}
    problems = []
    for c in cmds:
        if c.twin_of is None:
            continue
        mine, theirs = Path(c.witness), Path(by_name[c.twin_of].witness)
        if not (mine.is_file() and theirs.is_file()) or mine.read_bytes() != theirs.read_bytes():
            problems.append(f"{c.name}: witness differs from {c.twin_of}")
    return problems


def recheck_witnesses(cmds, reports):
    """Re-check emitted witnesses in-process: each must be free of its
    forbidden posets and have the reported size.  Needs posetlab importable.
    Returns (command name, problem) for every problem found."""
    from posetlab.cli import parse_poset_spec
    from posetlab.errors import PosetlabError
    from posetlab.family import parse_family
    from posetlab.search import verify_free

    problems = []
    for c in cmds:
        if c.witness is None or reports.get(c.name) is None:
            continue
        value = reports[c.name]["value"]
        try:
            fam = parse_family(Path(c.witness).read_text(encoding="utf-8"))
        except (OSError, PosetlabError) as exc:
            problems.append((c.name, f"{c.name}: witness unreadable: {exc}"))
            continue
        free, copy = verify_free(fam, [parse_poset_spec(s) for s in c.forbid], c.mode)
        if not free:
            problems.append((c.name, f"{c.name}: witness contains a copy {copy.to_json_dict()}"))
        if len(fam) != value:
            problems.append((c.name, f"{c.name}: witness has {len(fam)} sets, value {value}"))
    return problems


def answer_size(report):
    """The family size a command's answer certifies (for best_value)."""
    if report is None:
        return 0
    if "value" in report:
        return report["value"]
    if "familySize" in report:
        return report["familySize"]
    # verify paper: the largest exact search value the suite reports
    sizes = []
    for check in report.get("checks", ()):
        if check["name"] in ("sperner_small_n", "y12_pair_small_n", "small_n_oracle"):
            obs = check["observed"]
            values = obs.get("values", obs)
            sizes += [int(v) for v in values.values() if isinstance(v, str) and v.isdigit()]
    return max(sizes, default=0)
