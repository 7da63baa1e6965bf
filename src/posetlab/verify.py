"""Built-in verification suite behind the `verify paper` CLI subcommand.

Each check is a pure composition of library operations with a fixed seed,
so two runs produce identical reports.  The checks mirror the project's
acceptance criteria one to one; the test suite runs the same assertions
through pytest with independent corpora.

The checks share no state, so run_suite uses a second CPU where there is
one: it forks a child for the heaviest check, the copy-detector oracle,
and runs the others meanwhile.  The child pickles its CheckResult, or the
exception it raised, into a pipe and ends with os._exit, so nothing
buffered is flushed twice and no atexit handler runs.  The parent puts
the result in its place in the report, raises the exception again, or
raises RuntimeError when the child ended without a result; on every path
it reaps the child, killing it first when the result was never read.
The suite runs in-process, as on one CPU, when only one CPU is usable,
when os.fork does not exist or fails, or when the process has other
threads (Python 3.12+ warns on a fork then).  The report is the same either way.
"""
from __future__ import annotations

import math
import os
import pickle
import random
import threading
from collections import namedtuple

from .chains import (
    chain_weight_average,
    count_2chains,
    kleitman_lower_bound,
    lubell_mass,
    pair_count,
)
from .embed import (
    Embedding,
    InclusionBigraph,
    check_embedding,
    find_copy,
    find_copy_bruteforce,
    greedy_tree_embed,
    min_degree_subgraph,
    saturation_check,
    verify_free,
)
from .errors import InvalidParam, NotFree, NotGraded
from .family import (
    SetFamily,
    f23_construction,
    f23_formula_size,
    full_layer,
    lubell_tail_family,
    middle_layers,
)
from .poset import (
    all_height2_tree_posets,
    chain,
    poset_from_covers,
    rank_coloring,
    y_poset,
    y_prime_poset,
)
from .search import exhaustive_max_free, la_exact

DEFAULT_SEED = 20240801

# Exact value of the n=4 rank-preserving search against the Y(2,2) pair,
# frozen from exhaustive enumeration over all 2^16 families.
N4_Y22_PAIR_RP_VALUE = 10


class CheckResult(namedtuple("CheckResult", "name claim inputs observed passed")):
    __slots__ = ()

    def to_json_dict(self):
        return {
            "name": self.name,
            "claim": self.claim,
            "inputs": self.inputs,
            "observed": self.observed,
            "pass": self.passed,
        }


def _random_family(rng, n, max_size):
    size = rng.randint(0, max_size)
    return SetFamily(n, tuple(rng.sample(range(1 << n), size)))


def _random_poset(rng, max_elements=4, built=None):
    """A poset on e0..e(k-1) from forward pairs, each drawn with chance 0.4.
    built, if given, maps each draw (k, pairs) to its poset, built once."""
    k = rng.randint(1, max_elements)
    labels = [f"e{i}" for i in range(k)]
    pairs = tuple((labels[i], labels[j]) for i in range(k) for j in range(i + 1, k)
                  if rng.random() < 0.4)
    built = {} if built is None else built
    if (k, pairs) not in built:
        built[k, pairs] = poset_from_covers(labels, pairs)
    return built[k, pairs]


def _random_dense_bigraph(rng, t):
    """Seeded inclusion bigraph with average degree above 2(t-2)."""
    threshold = 2 * (t - 2)
    for _ in range(200):
        n = rng.randint(6, 9)
        gap = rng.randint(2, 3)
        i = rng.randint(1, n - gap - 1)
        keep = 0.7 + 0.3 * rng.random()
        left = [m for m in full_layer(n, i) if rng.random() < keep]
        right = [m for m in full_layer(n, i + gap) if rng.random() < keep]
        g = InclusionBigraph(tuple(left), tuple(right))
        if g.vertex_count and g.average_degree() > threshold:
            return g
    return InclusionBigraph(tuple(full_layer(8, 2)), tuple(full_layer(8, 5)))


def _ns(lo, hi):
    """The n a check ran over lo..hi, for its inputs: "none" when hi < lo."""
    return "none" if hi < lo else str(lo) if hi == lo else f"{lo}..{hi}"


# ---------------------------------------------------------------------------
# Checks.  Each returns a CheckResult; `counts` scales corpus sizes.

def check_sperner(max_n):
    values = {}
    ok = True
    for n in range(2, min(5, max_n) + 1):
        got = la_exact(n, [chain(2)], "weak").value
        want = math.comb(n, n // 2)
        values[str(n)] = str(got)
        ok = ok and got == want
    return CheckResult(
        "sperner_small_n",
        "largest antichain in 2^[n] has size C(n, floor(n/2))",
        {"n": _ns(2, min(5, max_n))},
        {"values": values},
        ok,
    )


def check_y12_pair(max_n):
    forb = [y_poset(1, 2), y_prime_poset(1, 2)]
    got4 = la_exact(4, forb, "weak").value
    observed = {"n4": str(got4)}
    ok = got4 == 6
    if max_n >= 5:
        got5 = la_exact(5, forb, "weak").value
        observed["n5"] = str(got5)
        ok = ok and got5 == 12
    return CheckResult(
        "y12_pair_small_n",
        "largest family avoiding Y(1,2) and its dual: the middle layer for "
        "even n, twice the middle layer of [n-1] for odd n",
        {"n": "4, 5" if max_n >= 5 else "4"},
        observed,
        ok,
    )


def check_middle_saturation(max_n):
    forb = [y_poset(2, 2), y_prime_poset(2, 2)]
    per_n = {}
    ok = True
    for n in range(5, min(7, max_n) + 1):
        fam = middle_layers(n, 2)
        try:
            free, sat = True, saturation_check(fam, forb, "rank_preserving").saturated
        except NotFree:
            free, sat = False, False
        per_n[str(n)] = f"free={free},saturated={sat}"
        ok = ok and free and sat
    return CheckResult(
        "middle_layers_saturated",
        "two middle layers avoid the rank-preserving Y(2,2) pair and every "
        "added set creates a copy",
        {"n": _ns(5, min(7, max_n))},
        {"perN": per_n},
        ok,
    )


def check_chain_average(max_n, families_per_n, seed):
    rng = random.Random(seed)
    ok = True
    tested = 0
    for n in range(3, min(7, max_n) + 1):
        for _ in range(families_per_n):
            fam = _random_family(rng, n, min(1 << n, 40))
            via_enum = chain_weight_average(fam, via="enumeration")
            via_formula = chain_weight_average(fam, via="formula")
            tested += 1
            if not (via_enum == via_formula == len(fam)):
                ok = False
    return CheckResult(
        "chain_average_identity",
        "the average maximal-chain weight equals the family size, exactly",
        {"n": _ns(3, min(7, max_n)), "familiesPerN": str(families_per_n)},
        {"familiesTested": str(tested)},
        ok,
    )


def check_pair_count(max_n, families_per_n, seed):
    rng = random.Random(seed)
    ok = True
    tested = 0
    for n in range(3, min(7, max_n) + 1):
        for _ in range(families_per_n):
            fam = _random_family(rng, n, min(1 << n, 40))
            tested += 1
            if pair_count(fam) != lubell_mass(fam) * math.factorial(n):
                ok = False
    return CheckResult(
        "pair_count_identity",
        "member/maximal-chain incidences equal Lubell mass times n!",
        {"n": _ns(3, min(7, max_n)), "familiesPerN": str(families_per_n)},
        {"familiesTested": str(tested)},
        ok,
    )


def check_kleitman(max_n, count, seed):
    rng = random.Random(seed)
    top = min(10, max_n)
    violations = 0
    tested = 0
    for _ in range(count):
        n = rng.randint(2, top)
        # lean on near-middle profiles now and then; the bound is tight there
        if rng.random() < 0.3:
            fam = middle_layers(n, 1)
            extra = [m for m in range(1 << n) if m not in fam]
            fam = SetFamily(
                n, fam.members + tuple(rng.sample(extra, rng.randint(0, min(20, len(extra)))))
            )
        else:
            fam = _random_family(rng, n, min(1 << n, 120))
        tested += 1
        if count_2chains(fam) < kleitman_lower_bound(len(fam), n):
            violations += 1
    return CheckResult(
        "kleitman_two_chain_bound",
        "every family has at least ceil((|F| - C(n, n/2)) n/2) 2-chains",
        {"families": str(count), "maxN": str(top)},
        {"tested": str(tested), "violations": str(violations)},
        violations == 0,
    )


def check_f23():
    forb = [y_poset(1, 2), y_prime_poset(1, 3)]
    observed = {}
    ok = True
    for n in (6, 8):
        fam = f23_construction(n)
        free, _ = verify_free(fam, forb, "weak")
        beats = len(fam) > math.comb(n, n // 2)
        formula = f23_formula_size(n)
        # the half-sets without both pins, plus the (n/2 + 1)-sets with both
        half = n // 2
        closed = math.comb(n, half) - math.comb(n - 2, half - 2) + math.comb(n - 2, half - 1)
        observed[str(n)] = (
            f"size={len(fam)},central={math.comb(n, n // 2)},free={free},"
            f"formulaSize={formula},formulaMatches={formula == len(fam)},"
            f"closedForm={closed},closedFormMatches={closed == len(fam)}"
        )
        ok = ok and free and beats and closed == len(fam)
    return CheckResult(
        "f23_construction",
        "the pinned-pair construction beats the middle layer while avoiding "
        "Y(1,2) and the dual of Y(1,3); its closed-form size disagrees with "
        "enumeration and is flagged",
        {"n": "6, 8"},
        observed,
        ok,
    )


def check_tail_family(max_n):
    observed = {}
    ok = True
    for h in (3, 4):
        # the mass identity is cheap; always sweep the full n = 2h..12 range
        for n in range(2 * h, 13):
            mass = lubell_mass(lubell_tail_family(n, h))
            if mass != 2 * (h - 1):
                ok = False
        observed[f"h{h}"] = f"lubellMass={2 * (h - 1)} for n=2h..12"
    forb = [y_poset(3, 2), y_prime_poset(3, 2)]
    free_hi = min(10, max(max_n, 6))
    for n in range(6, free_hi + 1):
        free, _ = verify_free(lubell_tail_family(n, 3), forb, "weak")
        ok = ok and free
    observed["freeness"] = f"h=3 weak-free vs Y(3,2) pair for n=6..{free_hi}"
    return CheckResult(
        "tail_family",
        "levels 0..h-2 plus n-h+2..n have Lubell mass exactly 2(h-1) and "
        "avoid the Y(h, 2^(h-2)) pair",
        {"h": "3, 4"},
        observed,
        ok,
    )


def check_greedy_embedding(graphs_per_t, seed):
    rng = random.Random(seed)
    failures = 0
    tested = 0
    for t in (3, 4, 5):
        trees = all_height2_tree_posets(t)
        for _ in range(graphs_per_t):
            g = _random_dense_bigraph(rng, t)
            core = min_degree_subgraph(g, t - 1)
            tested += 1
            if core.vertex_count == 0:
                failures += 1
                continue
            for tree in trees:
                emb = greedy_tree_embed(core, tree)
                if not check_embedding(tree, emb.mapping, "rank_preserving"):
                    failures += 1
    return CheckResult(
        "greedy_tree_embedding",
        "average degree above 2(t-2) leaves a nonempty (t-1)-core into which "
        "every t-element height-2 tree poset embeds greedily",
        {"graphsPerT": str(graphs_per_t), "t": "3, 4, 5"},
        {"graphs": str(tested), "failures": str(failures)},
        failures == 0,
    )


def check_small_n_oracle():
    combos = {
        "chain2": [chain(2)],
        "y12pair": [y_poset(1, 2), y_prime_poset(1, 2)],
        "y22pair": [y_poset(2, 2), y_prime_poset(2, 2)],
    }
    observed = {}
    ok = True
    for name, forb in combos.items():
        for mode in ("weak", "rank_preserving"):
            ex = exhaustive_max_free(4, forb, mode).value
            bb = la_exact(4, forb, mode).value
            observed[f"{name}_{mode}"] = str(bb)
            ok = ok and ex == bb
    ok = ok and observed["y22pair_rank_preserving"] == str(N4_Y22_PAIR_RP_VALUE)
    return CheckResult(
        "small_n_oracle",
        "branch-and-bound equals exhaustive enumeration over all 2^16 "
        "families at n=4; the rank-preserving Y(2,2)-pair value stays pinned",
        {"n": "4", "pinned": str(N4_Y22_PAIR_RP_VALUE)},
        observed,
        ok,
    )


def _outcome(route, fam, poset, mode, coloring):
    """What one matcher route answers: its copy, None, or "not_graded" when
    it raises NotGraded (rank-preserving mode on a poset that is not)."""
    try:
        return route(fam, poset, mode, coloring)
    except NotGraded:
        return "not_graded"


def check_copy_detector(triples, seed):
    rng = random.Random(seed)
    built = {}  # at most 75 distinct draws: posets are immutable, so shared
    disagreements = 0
    tested = 0
    while tested < triples:
        fam = _random_family(rng, 4, 8)
        poset = _random_poset(rng, 4, built)
        mode = rng.choice(("weak", "induced", "rank_preserving", "colored"))
        coloring = None
        if mode == "colored":
            coloring = rank_coloring(poset)
        fast = _outcome(find_copy, fam, poset, mode, coloring)
        slow = _outcome(find_copy_bruteforce, fam, poset, mode, coloring)
        if isinstance(fast, Embedding) and isinstance(slow, Embedding):
            for e in (fast, slow):
                disagreements += not check_embedding(poset, e.mapping, mode, coloring, fam)
        else:
            disagreements += fast != slow
        tested += 1
    return CheckResult(
        "copy_detector_oracle",
        "the backtracking matcher agrees with the exhaustive injective "
        "matcher on random (family, poset, mode) triples",
        {"triples": str(triples), "n": "4"},
        {"tested": str(tested), "disagreements": str(disagreements)},
        disagreements == 0,
    )


def _usable_cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _threads():
    """Threads in this process, counted as Python 3.12+'s fork warning
    counts them: from /proc where it exists, else the threading module's."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


class _Forked:
    """check(*args), run in a forked child while the caller goes on.
    result() waits for it; close() reaps the child on every path."""

    def __init__(self, check, *args):
        rfd, wfd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(rfd)
            os.close(wfd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(rfd)
                try:
                    payload = (True, check(*args))
                except Exception as exc:
                    payload = (False, exc)
                with open(wfd, "wb") as pipe:
                    pickle.dump(payload, pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(wfd)
        self.pipe = open(rfd, "rb")

    def result(self):
        """The check's result, or its exception raised again.  Reading the
        pipe to its end cannot hang: the child holds its only write end."""
        data = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        try:
            ok, value = pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):  # nothing, or a cut-off payload
            raise RuntimeError("the forked check ended without a result (exit code "
                               f"{os.waitstatus_to_exitcode(status)})") from None
        if not ok:
            raise value
        return value

    def close(self):
        self.pipe.close()
        if self.pid is not None:  # the result was never read
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def run_suite(suite="all", max_n=7, seed=DEFAULT_SEED):
    """Run the named suite, "all" or "fast"; returns a JSON-ready report dict."""
    if suite not in ("all", "fast"):
        raise InvalidParam(f"unknown suite {suite!r}; known: all, fast")
    if max_n < 2:
        raise InvalidParam("verify needs max_n >= 2")
    fast = suite == "fast"
    families_per_n = 20 if fast else 100
    kleitman_count = 200 if fast else 1000
    graphs_per_t = 30 if fast else 200
    triples = 1000 if fast else 10000

    copy_args = (triples, seed + 4)
    child = None
    if _usable_cpus() > 1 and hasattr(os, "fork") and _threads() == 1:
        try:
            child = _Forked(check_copy_detector, *copy_args)
        except OSError:  # no process to spare: the check runs here
            pass
    try:
        checks = [
            check_sperner(max_n),
            check_y12_pair(max_n),
            check_middle_saturation(max_n),
            check_chain_average(max_n, families_per_n, seed),
            check_pair_count(max_n, families_per_n, seed + 1),
            check_kleitman(max_n, kleitman_count, seed + 2),
            check_f23(),
            check_tail_family(max_n),
            check_greedy_embedding(graphs_per_t, seed + 3),
        ]
        if not fast:
            checks.append(check_small_n_oracle())
        checks.append(child.result() if child else check_copy_detector(*copy_args))
    finally:
        if child:
            child.close()

    return {
        "suite": suite,
        "maxN": max_n,
        "seed": seed,
        "checks": [c.to_json_dict() for c in checks],
        "pass": all(c.passed for c in checks),
    }
