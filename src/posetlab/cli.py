"""Command-line front end.

Subcommands: poset gen|show, family gen|stats, check free|saturated,
measure, search la, verify paper.  Reports are JSON by default (CSV via
--format csv), built in full before anything is printed.  Exit codes:
0 success / all checks pass, 1 a check or verify assertion failed,
2 usage or input error.  `search la` and `verify paper` accept a hidden
--workers that nothing reads, for old command lines.  Handlers call the
library through its lazily loaded modules (search.la_exact, ...), so a
command runs only the modules it uses.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import chains, embed, family, poset, search, verify
from .errors import InvalidParam, NotFree, PosetlabError


class UsageError(Exception):
    pass


MODE_NAMES = {
    "weak": "weak",
    "induced": "induced",
    "rp": "rank_preserving",
    "rank_preserving": "rank_preserving",
}


def parse_poset_spec(spec):
    """named:K(a,...) with K any poset.gen_named name, e.g. named:y'(1,3),
    or a poset JSON path."""
    if not spec.startswith("named:"):
        return poset.poset_from_json(_read_text(spec, "poset"))
    kind, _, rest = spec[len("named:"):].partition("(")
    if not rest.endswith(")"):
        raise UsageError(f"malformed named poset {_excerpt(spec)}; expected named:KIND(a,b,...)")
    try:
        return poset.gen_named(kind, _ints(rest[:-1], _excerpt(spec)))
    except InvalidParam as exc:
        raise UsageError(f"{_excerpt(spec)}: {exc}") from exc


def _excerpt(text):
    """repr(text), cut after 40 characters: errors echo inputs in short."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def _ints(text, what):
    """Comma-separated ASCII decimal numbers, spaces around each allowed;
    int() alone would also take '٣', '+2' and '2_0'."""
    tokens = [t.strip() for t in text.split(",")] if text else []
    if not all(t.isascii() and t.isdigit() for t in tokens):
        raise UsageError(f"{what}: expected comma-separated numbers of digits 0-9, "
                         f"got {_excerpt(text)}")
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:  # past the interpreter's integer string limit
        raise UsageError(f"{what}: {max(map(len, tokens))}-digit number is too long") from exc


def _load_family(path, expected_n=None):
    fam = family.parse_family(_read_text(path, "family"))
    if expected_n is not None and fam.n != expected_n:
        raise UsageError(f"family file has n={fam.n}, --n says {expected_n}")
    return fam


def _mode(arg):
    if arg not in MODE_NAMES:
        raise UsageError(f"unknown mode {arg!r}; expected weak|induced|rp")
    return MODE_NAMES[arg]


def _read_text(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what} file {path!r}: {exc}") from exc


def _write_text(text, out):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out!r}: {exc}") from exc


def _emit(payload, fmt="json"):
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(_flatten_csv(payload))
        text = buf.getvalue()
    sys.stdout.write(text)


def _flatten_csv(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            rows.extend(_flatten_csv(value, f"{prefix}{key}." if prefix else f"{key}."))
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            rows.extend(_flatten_csv(value, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), payload))
    return rows


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns the process exit code.

def _cmd_poset_gen(args):
    p = poset.gen_named(args.kind, _ints(args.params, "--params"), t3_reading=args.t3_reading)
    _write_text(poset.poset_to_json(p) + "\n", args.out)
    return 0


def _cmd_poset_show(args):
    if not (args.named or args.file):
        raise UsageError("poset show needs --file or --named")
    p = parse_poset_spec(args.named or args.file)
    _emit(
        {
            "elements": list(p.elements),
            "covers": [list(c) for c in p.covers],
            "height": poset.height(p),
            "graded": p.graded,
            "ranks": poset.rank_coloring(p),
            "classification": poset.classify_tree(p),
        },
        args.format,
    )
    return 0


def _cmd_family_gen(args):
    if args.kind == "middle":
        if args.h is None:
            raise UsageError("family gen --kind middle needs --h")
        fam = family.middle_layers(args.n, args.h)
    elif args.kind == "f23":
        fam = family.f23_construction(args.n)
    else:  # lubell_tail, the last of --kind's choices
        if args.h is None:
            raise UsageError("family gen --kind lubell_tail needs --h")
        fam = family.lubell_tail_family(args.n, args.h)
    _write_text(family.serialize_family(fam), args.out)
    return 0


def _cmd_family_stats(args):
    fam = _load_family(args.file)
    _emit(
        {"n": fam.n, "size": len(fam), "profile": family.layer_profile(fam)},
        args.format,
    )
    return 0


def _cmd_check_free(args):
    fam = _load_family(args.family, args.n)
    forbidden = [parse_poset_spec(s) for s in args.forbid]
    free, witness = embed.verify_free(fam, forbidden, _mode(args.mode))
    _emit(
        {
            "check": "free",
            "n": fam.n,
            "familySize": len(fam),
            "mode": _mode(args.mode),
            "forbidden": args.forbid,
            "free": free,
            "witness": witness.to_json_dict() if witness else None,
        },
        args.format,
    )
    return 0 if free else 1


def _cmd_check_saturated(args):
    fam = _load_family(args.family, args.n)
    forbidden = [parse_poset_spec(s) for s in args.forbid]
    mode = _mode(args.mode)
    report = {"check": "saturated", "n": fam.n, "familySize": len(fam), "mode": mode,
              "forbidden": args.forbid}
    try:
        result = embed.saturation_check(fam, forbidden, mode)
    except NotFree as exc:
        _emit({**report, "saturated": False, "notFree": True,
               "witness": exc.witness.to_json_dict()}, args.format)
        return 1
    _emit(
        {
            **report,
            "saturated": result.saturated,
            "counterexample": (
                family.elements_of(result.counterexample)
                if result.counterexample is not None
                else None
            ),
        },
        args.format,
    )
    return 0 if result.saturated else 1


def _cmd_measure(args):
    fam = _load_family(args.family)
    _emit(
        {
            "lubell": str(chains.lubell_mass(fam)),
            "pairCount": str(chains.pair_count(fam)),
            "twoChains": chains.count_2chains(fam),
            "kleitmanBound": chains.kleitman_lower_bound(len(fam), fam.n),
            "chainAvg": str(chains.chain_weight_average(fam)),
        },
        args.format,
    )
    return 0


def _cmd_search_la(args):
    forbidden = [parse_poset_spec(s) for s in args.forbid]
    cfg = search.SearchConfig(budget_ms=args.budget_ms, symmetry_pruning=args.symmetry)
    outcome = search.la_exact(args.n, forbidden, _mode(args.mode), cfg)
    if args.emit_witness:
        _write_text(family.serialize_family(outcome.witness), args.emit_witness)
    _emit(
        {
            "command": "search la",
            "n": args.n,
            "mode": outcome.mode,
            "forbidden": args.forbid,
            "value": outcome.value,
            "exact": outcome.exact,
            "nodesExplored": outcome.nodes_explored,
            "witnessSize": len(outcome.witness),
            "witnessPath": args.emit_witness,
        },
        args.format,
    )
    return 0


def _cmd_verify_paper(args):
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    report = verify.run_suite(suite=args.suite, max_n=args.max_n, seed=seed)
    report = {"command": "verify paper", **report}
    _emit(report, args.format)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------

def _add_format(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _build_parser():
    top = argparse.ArgumentParser(
        prog="posetlab",
        description="Forbidden-subposet toolkit over the Boolean lattice",
    )
    sub = top.add_subparsers(dest="command", required=True)

    poset_p = sub.add_parser("poset", help="generate or inspect posets")
    poset_sub = poset_p.add_subparsers(dest="subcommand", required=True)
    g = poset_sub.add_parser("gen", help="emit a named poset as JSON")
    g.add_argument("--kind", required=True, help="a named:KIND name, e.g. y or y'")
    g.add_argument("--params", default="", help="comma-separated positive ints")
    g.add_argument("--t3-reading", choices=("degree", "children"), default="degree")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_poset_gen)
    s = poset_sub.add_parser("show", help="summarize a poset")
    s.add_argument("--file")
    s.add_argument("--named", help="named:... spec, e.g. named:y(2,2)")
    _add_format(s)
    s.set_defaults(func=_cmd_poset_show)

    family_p = sub.add_parser("family", help="generate or inspect families")
    family_sub = family_p.add_subparsers(dest="subcommand", required=True)
    g = family_sub.add_parser("gen", help="emit a construction as a family file")
    g.add_argument("--kind", required=True, choices=("middle", "f23", "lubell_tail"))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--h", type=int)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_family_gen)
    s = family_sub.add_parser("stats", help="size and layer profile")
    s.add_argument("--file", required=True)
    _add_format(s)
    s.set_defaults(func=_cmd_family_stats)

    check_p = sub.add_parser("check", help="freeness and saturation checks")
    check_sub = check_p.add_subparsers(dest="subcommand", required=True)
    for name, handler in (("free", _cmd_check_free), ("saturated", _cmd_check_saturated)):
        c = check_sub.add_parser(name)
        c.add_argument("--family", required=True)
        c.add_argument("--n", type=int)
        c.add_argument("--forbid", action="append", required=True,
                       help="named:... spec or poset JSON path; repeatable")
        c.add_argument("--mode", default="weak")
        _add_format(c)
        c.set_defaults(func=handler)

    m = sub.add_parser("measure", help="exact counting quantities of a family")
    m.add_argument("--family", required=True)
    _add_format(m)
    m.set_defaults(func=_cmd_measure)

    search_p = sub.add_parser("search", help="exact extremal search")
    search_sub = search_p.add_subparsers(dest="subcommand", required=True)
    la = search_sub.add_parser("la", help="maximum size of a free family")
    la.add_argument("--n", type=int, required=True)
    la.add_argument("--forbid", action="append", required=True)
    la.add_argument("--mode", default="weak")
    la.add_argument("--budget-ms", type=int, default=None)
    la.add_argument("--emit-witness")
    la.add_argument("--symmetry", action="store_true")
    la.add_argument("--workers", type=int, help=argparse.SUPPRESS)  # not read
    _add_format(la)
    la.set_defaults(func=_cmd_search_la)

    verify_p = sub.add_parser("verify", help="built-in verification suites")
    verify_sub = verify_p.add_subparsers(dest="subcommand", required=True)
    vp = verify_sub.add_parser("paper", help="run the claim verification suite")
    vp.add_argument("--suite", choices=("all", "fast"), default="all")
    vp.add_argument("--max-n", type=int, default=7, help="largest n of the searches and "
                    "identity sweeps (>= 2); fixed-input checks ignore it; each reports its n")
    vp.add_argument("--seed", type=int)
    vp.add_argument("--workers", type=int, help=argparse.SUPPRESS)  # not read
    _add_format(vp)
    vp.set_defaults(func=_cmd_verify_paper)

    return top


def run(argv=None):
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, PosetlabError) as exc:
        print(f"posetlab: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
