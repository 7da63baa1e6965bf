#!/usr/bin/env python3
"""posetlab benchmark: named CLI workloads, timed as whole processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a posetlab checkout; the program is run from `src/`
as it is, nothing is installed.  Workloads: exact-search, budget-search,
detect, verify, or `all` to run the four in turn.

--trace 0 times each workload command as a `python3 -m posetlab` child
process, repeating passes over the workload for about S seconds, and
reports medians.  --trace 1 runs the workload twice in-process through
`posetlab.cli.run` (see layers.py), once plain and once traced, and reports
per-layer metrics.  Every answer is checked either way; the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details, workload rationale and the layer-to-metric map: perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

SETUP_PROBES = 9          # timed no-work CLI processes per run; setup_s is their median
COMMAND_TIMEOUT_S = 150   # a command still running after this is killed and counts as failed


def child_env():
    """Environment for every posetlab child: the checkout's sources, no
    POSETLAB_WORKERS (the --workers default reads it), fixed hash seed."""
    env = dict(os.environ)
    env.pop("POSETLAB_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv, workdir):
    """Run one child to completion through spawn.py, which times it and takes
    its ru_maxrss from os.wait4; returns (seconds, returncode, stdout, stderr,
    maxrss KiB).  A child still running after COMMAND_TIMEOUT_S is killed."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    res_path = workdir / "spawn.json"
    res_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-S", str(HERE / "spawn.py"), str(res_path),
                                 *argv], stdout=out, stderr=err, env=child_env(), cwd=ROOT,
                                start_new_session=True)
        try:
            proc.wait(COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    stdout = out_path.read_text(encoding="utf-8")
    stderr = err_path.read_text(encoding="utf-8")
    if proc.returncode != 0 or not res_path.is_file():
        return COMMAND_TIMEOUT_S, proc.returncode or -signal.SIGKILL, stdout, stderr, 0
    res = json.loads(res_path.read_text(encoding="utf-8"))
    return res["seconds"], res["returncode"], stdout, stderr, res["maxrss_kib"]


def run_cli(args, workdir):
    return run_process([sys.executable, "-m", "posetlab", *args], workdir)


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "posetlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed):
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        revision = rev.stdout.strip() if rev.returncode == 0 else None
    except OSError:  # no git
        revision = None
    return {
        "revision": revision,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


class Tally:
    """Commands attempted and the problems found with each; nothing is dropped."""

    def __init__(self):
        self.attempts = {}  # (pass, command name) -> [problems]

    def add(self, key, problems=()):
        self.attempts.setdefault(key, []).extend(problems)

    def fail_all(self, name, problem):
        for key in self.attempts:
            if key[1] == name:
                self.attempts[key].append(problem)

    @property
    def attempted(self):
        return len(self.attempts)

    @property
    def failed(self):
        return sum(1 for p in self.attempts.values() if p)

    def problems(self):
        return [p for probs in self.attempts.values() for p in probs]


def check_node_counts(tally, nodes_by_pass, digest):
    """Exact-search node counts must repeat across passes and across runs of
    the same sources; they are recorded, never pinned to expected values."""
    seen = {}
    for _, name, nodes in nodes_by_pass:
        seen.setdefault(name, set()).add(nodes)
    for name, counts in seen.items():
        if len(counts) > 1:
            tally.fail_all(name, f"{name}: node counts differ between passes: {sorted(counts)}")
    STATE.mkdir(exist_ok=True)
    path = STATE / "nodes.json"
    try:
        known = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    mine = known.setdefault(digest, {})
    for name, counts in seen.items():
        nodes = min(counts)
        if name in mine and mine[name] != nodes:
            tally.fail_all(name, f"{name}: {nodes} nodes, an earlier run of the same "
                                 f"sources explored {mine[name]}")
        mine.setdefault(name, nodes)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def recheck(tally, key, cmds, reports):
    """Re-check emitted witnesses in-process with verify_free, after timing."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name, problem in wl.recheck_witnesses(cmds, reports):
        tally.add((key, name), [problem])


def setup(workload, workdir):
    for args in wl.setup_commands(workload, workdir):
        _, rc, _, err, _ = run_cli(args, workdir)
        if rc != 0:
            raise RuntimeError(f"set-up command {' '.join(args)} failed ({rc}): {err.strip()}")


def measure(workload, seed, seconds, workdir, env_info):
    """--trace 0: passes of CLI processes.  Returns (metrics, extra, tally)."""
    setup(workload, workdir)
    run_cli(wl.SETUP_PROBE, workdir)  # warm the file cache and bytecode before timing
    probes = [run_cli(wl.SETUP_PROBE, workdir) for _ in range(SETUP_PROBES)]
    tally = Tally()
    for i, (_, rc, _, err, _) in enumerate(probes):
        tally.add(("setup", f"probe{i}"), [] if rc == 0 else [f"setup probe exit {rc}: {err}"])

    passes, nodes, rss, reports_by_pass = [], [], [], []
    t0 = time.perf_counter()
    while True:
        k = len(passes)
        outdir = workdir / f"pass{k}"
        outdir.mkdir()
        cmds = wl.commands(workload, seed, workdir, outdir)
        times, reports, sizes = {}, {}, []
        for cmd in cmds:
            secs, rc, out, err, maxrss = run_cli(cmd.argv, workdir)
            problems, report = wl.check_answer(cmd, rc, out)
            if rc != 0 and err.strip():
                problems.append(f"{cmd.name}: stderr: {err.strip()[-300:]}")
            tally.add((k, cmd.name), problems)
            times[cmd.name] = secs
            rss.append(maxrss)
            reports[cmd.name] = report
            sizes.append(wl.answer_size(report))
            if workload == "exact-search" and report is not None:
                nodes.append((k, cmd.name, report.get("nodesExplored")))
        for problem in wl.check_twins(cmds):
            tally.add((k, problem.split(":")[0]), [problem])
        passes.append((times, max(sizes)))
        print(f"{workload:14s} pass {k}: {sum(times.values()):.4f} s", flush=True)
        reports_by_pass.append((cmds, reports))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:  # the next pass would overrun
            break

    # After timing: re-check every emitted witness.
    for k, (cmds, reports) in enumerate(reports_by_pass):
        recheck(tally, k, cmds, reports)
    if workload == "exact-search":
        check_node_counts(tally, nodes, env_info["source_sha256"])

    walls = [sum(times.values()) for times, _ in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(p[0] for p in probes), "s"),
        "peak_rss_mib": (max(rss) / 1024, "MiB"),
        "best_value": (statistics.median(size for _, size in passes), "count"),
    }
    extra = {"fail_frac": (tally.failed / tally.attempted, "ratio"),
             "passes": (len(passes), "count")}
    prefix = wl.PER_COMMAND_METRIC.get(workload)
    for cmd in cmds:
        if prefix:
            extra[f"{prefix}.{cmd.name}"] = (statistics.median(t[cmd.name] for t, _ in passes), "s")
    for _, name, n in nodes[: len(cmds)]:
        extra[f"nodes.{name}"] = (n, "count")
    return metrics, extra, tally


def trace(workload, seed, seconds, workdir, env_info):
    """--trace 1: one plain and one traced in-process run.  Returns (metrics, extra, tally)."""
    setup(workload, workdir)
    tally = Tally()
    runs = {}
    for mode in ("plain", "traced"):
        out = workdir / f"{mode}.json"
        argv = [sys.executable, str(HERE / "layers.py"), "--workload", workload,
                "--seed", str(seed), "--workdir", str(workdir), "--out", str(out)]
        if mode == "traced":
            argv += ["--traced", "--spans", str(STATE / f"spans-{workload}.tsv")]
        _, rc, _, err, _ = run_process(argv, workdir)
        if rc != 0:
            raise RuntimeError(f"{mode} in-process run failed ({rc}): {err.strip()[-2000:]}")
        runs[mode] = json.loads(out.read_text(encoding="utf-8"))

    nodes, times = [], {}
    for mode, run in runs.items():
        cmds = wl.commands(workload, seed, workdir, workdir / mode)
        reports = {}
        for cmd, res in zip(cmds, run["commands"]):
            problems, report = wl.check_answer(cmd, res["returncode"], res["stdout"])
            tally.add((mode, cmd.name), problems)
            reports[cmd.name] = report
            times[mode, cmd.name] = res["seconds"]
            if "nodesExplored" in (report or {}):
                nodes.append((mode, cmd.name, report["nodesExplored"]))
        for problem in wl.check_twins(cmds):
            tally.add((mode, problem.split(":")[0]), [problem])
        recheck(tally, mode, cmds, reports)
    if workload == "exact-search":
        check_node_counts(tally, nodes, env_info["source_sha256"])

    m = dict(runs["traced"]["layers"])
    if workload == "budget-search":
        # the deadline fixes the time, so compare the work done in it
        plain_nodes, traced_nodes = (sum(n for mode_, _, n in nodes if mode_ == mode)
                                     for mode in ("plain", "traced"))
        m["trace.overhead_frac"] = plain_nodes / traced_nodes - 1
    else:
        plain_s, traced_s = (sum(s for (mode_, _), s in times.items() if mode_ == mode)
                             for mode in ("plain", "traced"))
        m["trace.overhead_frac"] = traced_s / plain_s - 1
    plain_nodes = {name: n for mode, name, n in nodes if mode == "plain"}
    for inst in layers.EXACT_INSTANCES:
        m[f"search.nodes.{inst}"] = plain_nodes.get(inst, 0)
    w1, w2 = "y12pair-n5-weak", "y12pair-n5-weak-w2"
    if w2 in plain_nodes:
        m["search.parallel.extra_nodes"] = plain_nodes[w2] - plain_nodes[w1]
        m["search.parallel.speedup"] = times["plain", w1] / times["plain", w2]
    else:
        m["search.parallel.extra_nodes"] = 0
        m["search.parallel.speedup"] = 0.0
    units = dict(layers.PER_LAYER)
    metrics = {name: (m[name], units[name]) for name, _ in layers.PER_LAYER}
    extra = {"spans": (runs["traced"]["spans"], "count")}
    return metrics, extra, tally


def run_workload(workload, seed, seconds, trace_on, env_info):
    workdir = STATE / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        fn = trace if trace_on else measure
        return fn(workload, seed, seconds, workdir, env_info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def declared_metrics(trace_on):
    """Metric names BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace_on else "end_to_end"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description="posetlab benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "posetlab" / "__init__.py").is_file():
        print(f"perfbench: no posetlab sources under {SRC}", file=sys.stderr)
        return 2
    env_info = environment(args.seed)
    print("env " + json.dumps(env_info, sort_keys=True), flush=True)

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    merged, attempted, failed, problems = {}, 0, 0, []
    for workload in names:
        metrics, extra, tally = run_workload(workload, args.seed, args.seconds,
                                             args.trace == 1, env_info)
        for name, (value, unit) in {**metrics, **extra}.items():
            print(f"{workload:14s} {name:45s} {value:>14.6g} {unit}", flush=True)
        if sorted(metrics) != sorted(declared_metrics(args.trace == 1)):
            problems.append(f"{workload}: metrics differ from BENCHMARK.json")
        suffix = f".{workload}" if len(names) > 1 else ""
        merged.update({name + suffix: {"value": v, "unit": u} for name, (v, u) in metrics.items()})
        attempted += tally.attempted
        failed += tally.failed
        problems += tally.problems()
        result = {"workload": workload, "trace": args.trace, "env": env_info,
                  "metrics": {k: v for k, (v, _) in metrics.items()},
                  "extra": {k: v for k, (v, _) in extra.items()},
                  "attempted": tally.attempted, "failed": tally.failed,
                  "problems": tally.problems()}
        results = STATE / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    for problem in problems:
        print(f"FAIL {problem}", flush=True)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
