"""In-process run of one workload through `posetlab.cli.run`, optionally traced.

Run as a child process by run.py:

    python3 perfbench/layers.py --workload W --seed S --workdir D --out R.json [--traced]

Without --traced it only times each command.  With --traced it first wraps
the public functions of every posetlab module (cli.run, search, embed,
family, chains, poset, verify) at each name a caller looks them up by, and
counts SetFamily builds on the class itself.  Every wrapped call records a
span (name, start, end, parent) in memory; the spans are written out once
the workload is done, and the per-layer metrics are computed from them.

Commands run with --workers > 1 are timed but not traced: their forked pool
workers would trace into memory nobody reads, so tracing is switched off
for the whole command and in every forked child.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import io
import json
import os
import sys
import time
from array import array
from contextlib import redirect_stdout
from pathlib import Path

import workloads as wl

LAYERS = ("cli", "search", "embed", "family", "chains", "poset", "verify")

# Bit-twiddling helpers called per set inside other functions: a span would
# cost more than the call, so their time stays with the caller.
UNTRACED = {"canonical_key", "mask_of", "elements_of"}

# Span names whose self time makes up each per-layer self-time metric.
SELF_TIME_GROUPS = {
    "search.self_s": ("search.la_exact",),
    "search.exhaustive.self_s": ("search.exhaustive_max_free",),
    "embed.creates_copy_through.self_s": ("embed.creates_copy_through",),
    "embed.find_copy.self_s": ("embed.find_copy",),
    "embed.oracle.self_s": ("embed.find_copy_bruteforce", "embed.is_copy_image",
                            "embed.check_embedding"),
    "embed.greedy.self_s": ("embed.greedy_tree_embed", "embed.min_degree_subgraph"),
    "cli.self_s": ("cli.run",),
}

VERIFY_CHECKS = (
    "sperner_small_n", "y12_pair_small_n", "middle_layers_saturated",
    "chain_average_identity", "pair_count_identity", "kleitman_two_chain_bound",
    "f23_construction", "tail_family", "greedy_tree_embedding", "small_n_oracle",
    "copy_detector_oracle",
)

SEARCH_INSTANCES = ("y12pair-n5-weak", "chain2-n5-weak", "y22pair-n4-rp", "y22pair-n5-weak-15s")
EXACT_INSTANCES = ("y12pair-n5-weak", "chain2-n5-weak", "y22pair-n4-rp", "y12pair-n5-weak-w2")
DETECT_CHECKS = ("sat-m11-y22pair-rp", "sat-m8-y22pair-weak", "free-m12-t3r3-weak",
                 "free-m12-y22-induced", "free-f23n12-y12y13-weak")

# Every per-layer metric, in the order BENCHMARK.json lists them.  A workload
# reports 0 for a layer it does not exercise.
PER_LAYER = (
    [("search.nodes", "count"), ("search.nodes_per_s", "1/s"), ("search.self_s", "s"),
     ("search.parallel.extra_nodes", "count"), ("search.parallel.speedup", "ratio"),
     ("search.exhaustive.self_s", "s"), ("search.verify_free.repeat_s", "s"),
     ("embed.creates_copy_through.calls", "count"),
     ("embed.creates_copy_through.self_s", "s"),
     ("embed.creates_copy_through.copy_ratio", "ratio"),
     ("embed.find_copy.calls", "count"), ("embed.find_copy.self_s", "s"),
     ("embed.oracle.self_s", "s"), ("embed.greedy.self_s", "s"),
     ("family.setfamily.count", "count"), ("family.setfamily.s", "s"),
     ("family.parse.s", "s"), ("chains.calls", "count"), ("chains.self_s", "s"),
     ("poset.self_s", "s"), ("cli.self_s", "s"), ("trace.overhead_frac", "ratio")]
    + [(f"verify.check.{c}.s", "s") for c in VERIFY_CHECKS]
    + [(f"search.nodes.{i}", "count") for i in EXACT_INSTANCES]
    + [(f"embed.creates_copy_through.frac.{i}", "ratio") for i in SEARCH_INSTANCES]
    + [(f"embed.creates_copy_through.copy_ratio.{i}", "ratio") for i in SEARCH_INSTANCES[:3]]
    + [(f"family.setfamily.frac.{c}", "ratio") for c in DETECT_CHECKS]
)


class Tracer:
    """Spans in flat arrays: name id, start, end and parent index (-1 for a root)."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.info = {}  # span index -> what the call returned that a metric needs
        self.stack = [-1]
        self.on = [True]

    def wrap(self, name, fn, info=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, infos, on, clock = self.stack, self.info, self.on, time.perf_counter

        def span(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if info is not None:
                infos[idx] = info(result)
            return result

        return functools.update_wrapper(span, fn)

    def install(self):
        """Wrap every public posetlab function at every module binding of it."""
        import posetlab
        from posetlab.family import SetFamily

        modules = {layer: sys.modules[f"posetlab.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNTRACED
                        and (layer != "cli" or attr == "run")):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj, _info_hook(layer, attr))
        for mod in (posetlab, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        SetFamily.__post_init__ = self.wrap("family.SetFamily", SetFamily.__post_init__)
        os.register_at_fork(after_in_child=self.off)

    def off(self):
        self.on[0] = False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")

    def summarize(self, lo, hi):
        """Per span name over spans lo..hi-1: [calls, inclusive s, self s, spans]."""
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += dur[i - lo]
        out = {}
        for i in range(lo, hi):
            row = out.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0, []])
            row[0] += 1
            row[1] += dur[i - lo]
            row[2] += dur[i - lo] - child[i - lo]
            row[3].append(i)
        return out


def _info_hook(layer, attr):
    """What a metric needs from a call's result: nodes explored, whether a
    copy was found, the verify check's report name."""
    if attr == "la_exact":
        return lambda outcome: outcome.nodes_explored
    if attr == "creates_copy_through":
        return lambda copy: copy is not None
    if layer == "verify" and attr.startswith("check_"):
        return lambda result: result.name
    return None


def layer_metrics(tracer, cmd_spans):
    """Per-layer metrics from the spans; cmd_spans maps command name -> (lo, hi)."""
    total = tracer.summarize(0, len(tracer.start))
    empty = [0, 0.0, 0.0, []]

    def get(name, summary=total):
        return summary.get(name, empty)

    m = {}
    la = get("search.la_exact")
    m["search.nodes"] = sum(tracer.info[i] for i in la[3])
    m["search.nodes_per_s"] = m["search.nodes"] / la[1] if la[1] else 0.0
    for metric, names in SELF_TIME_GROUPS.items():
        m[metric] = sum(get(n)[2] for n in names)
    # `check saturated` runs verify_free itself, then saturation_check runs it again.
    m["search.verify_free.repeat_s"] = 0.0
    for check in DETECT_CHECKS:
        if check.startswith("sat-") and check in cmd_spans:
            lo, hi = cmd_spans[check]
            m["search.verify_free.repeat_s"] += sum(
                tracer.end[i] - tracer.start[i] for i in range(lo, hi)
                if tracer.parent[i] == lo and tracer.names[tracer.name_id[i]] == "search.verify_free")
    cct = get("embed.creates_copy_through")
    m["embed.creates_copy_through.calls"] = cct[0]
    m["embed.creates_copy_through.copy_ratio"] = (
        sum(tracer.info[i] for i in cct[3]) / cct[0] if cct[0] else 0.0)
    m["embed.find_copy.calls"] = get("embed.find_copy")[0]
    m["family.setfamily.count"] = get("family.SetFamily")[0]
    m["family.setfamily.s"] = get("family.SetFamily")[1]
    m["family.parse.s"] = get("family.parse_family")[1]
    chains = [row for name, row in total.items() if name.startswith("chains.")]
    m["chains.calls"] = sum(row[0] for row in chains)
    m["chains.self_s"] = sum(row[2] for row in chains)
    m["poset.self_s"] = sum(row[2] for name, row in total.items() if name.startswith("poset."))
    check_s = {}
    for name, row in total.items():
        if name.startswith("verify.check_"):
            for i in row[3]:
                check_s[tracer.info[i]] = tracer.end[i] - tracer.start[i]
    for c in VERIFY_CHECKS:
        m[f"verify.check.{c}.s"] = check_s.get(c, 0.0)

    for inst in SEARCH_INSTANCES:
        frac = ratio = 0.0
        if inst in cmd_spans:
            s = tracer.summarize(*cmd_spans[inst])
            la_s = get("search.la_exact", s)[1]
            cct = get("embed.creates_copy_through", s)
            frac = cct[1] / la_s if la_s else 0.0
            ratio = sum(tracer.info[i] for i in cct[3]) / cct[0] if cct[0] else 0.0
        m[f"embed.creates_copy_through.frac.{inst}"] = frac
        if inst in SEARCH_INSTANCES[:3]:
            m[f"embed.creates_copy_through.copy_ratio.{inst}"] = ratio
    for check in DETECT_CHECKS:
        frac = 0.0
        if check in cmd_spans:
            s = tracer.summarize(*cmd_spans[check])
            cmd_s = get("cli.run", s)[1]
            frac = get("family.SetFamily", s)[1] / cmd_s if cmd_s else 0.0
        m[f"family.setfamily.frac.{check}"] = frac
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="file the spans are written to (with --traced)")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    import posetlab.cli  # noqa: F401  (loads every layer module)

    tracer = Tracer() if args.traced else None
    if tracer:
        tracer.install()
    cli = sys.modules["posetlab.cli"]
    outdir = Path(args.workdir) / ("traced" if args.traced else "plain")
    outdir.mkdir(parents=True, exist_ok=True)
    results, cmd_spans = [], {}
    for cmd in wl.commands(args.workload, args.seed, args.workdir, outdir):
        parallel = "--workers" in cmd.argv and cmd.argv[cmd.argv.index("--workers") + 1] != "1"
        buf = io.StringIO()
        lo = len(tracer.start) if tracer else 0
        if tracer and parallel:
            tracer.on[0] = False
        t0 = time.perf_counter()
        with redirect_stdout(buf):
            rc = cli.run(list(cmd.argv))
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.on[0] = True
            if not parallel:
                cmd_spans[cmd.name] = (lo, len(tracer.start))
        results.append({"name": cmd.name, "seconds": seconds, "returncode": rc,
                        "stdout": buf.getvalue()})
    out = {"commands": results}
    if tracer:
        out["layers"] = layer_metrics(tracer, cmd_spans)
        out["spans"] = len(tracer.start)
        if args.spans:
            tracer.write(args.spans)
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
