"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every assertion is exact (integer or rational equality) and each
criterion also has a wall-clock budget.
"""
import math
import random
import time
from contextlib import contextmanager

import pytest

from posetlab.chains import (
    chain_weight_average,
    count_2chains,
    kleitman_lower_bound,
    lubell_mass,
    pair_count,
)
from posetlab.embed import (
    InclusionBigraph,
    check_embedding,
    find_copy,
    find_copy_bruteforce,
    greedy_tree_embed,
    min_degree_subgraph,
)
from posetlab.errors import NotGraded
from posetlab.family import (
    SetFamily,
    f23_construction,
    f23_formula_size,
    full_layer,
    lubell_tail_family,
    middle_layers,
)
from posetlab.poset import (
    all_height2_tree_posets,
    chain,
    rank_assignment,
    rank_coloring,
    y_poset,
    y_prime_poset,
)
from posetlab.search import (
    exhaustive_max_free,
    la_exact,
    saturation_check,
    verify_free,
)
from strategies import random_family, random_graded_poset

SEED = 745512

# Frozen from exhaustive enumeration over all 2^16 families at n=4
# (criterion 10); the branch-and-bound value must keep matching it.
PINNED_N4_Y22_PAIR_RP = 10


@contextmanager
def criterion(num, description, budget_s):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok and elapsed < budget_s else "FAIL"
        print(f"criterion {num:02d} {status} ({elapsed:5.1f}s / {budget_s:g}s): {description}")
    if elapsed >= budget_s:
        raise AssertionError(f"criterion {num} exceeded its {budget_s}s budget")


@pytest.fixture(scope="module")
def corpus():
    """Seeded random families, 100 per n in 3..7, shared by criteria 4 and 5."""
    rng = random.Random(SEED)
    return {
        n: [random_family(rng, n, min(1 << n, 40)) for _ in range(100)]
        for n in range(3, 8)
    }


def test_criterion_01_sperner_values():
    with criterion(1, "antichain maxima equal central binomials, n=2..5", 10):
        for n, want in ((2, 2), (3, 3), (4, 6), (5, 10)):
            out = la_exact(n, [chain(2)], "weak")
            assert out.exact
            assert out.value == want == math.comb(n, n // 2)


def test_criterion_02_y12_pair_values():
    with criterion(2, "Y(1,2)-pair maxima: 6 at n=4, 12 at n=5", 60):
        forb = [y_poset(1, 2), y_prime_poset(1, 2)]
        assert la_exact(4, forb, "weak").value == 6
        assert la_exact(5, forb, "weak").value == 12


def test_criterion_03_middle_layer_saturation():
    with criterion(3, "two middle layers rank-preserving free and saturated, n=5..7", 60):
        forb = [y_poset(2, 2), y_prime_poset(2, 2)]
        for n in (5, 6, 7):
            fam = middle_layers(n, 2)
            free, _ = verify_free(fam, forb, "rank_preserving")
            assert free
            assert saturation_check(fam, forb, "rank_preserving").saturated


def test_criterion_04_chain_average_identity(corpus):
    with criterion(4, "full-chain weight average equals family size exactly", 120):
        for n, fams in corpus.items():
            for fam in fams:
                enum = chain_weight_average(fam, via="enumeration")
                assert enum == len(fam)
                assert enum == chain_weight_average(fam, via="formula")


def test_criterion_05_pair_count_identity(corpus):
    with criterion(5, "pair count equals Lubell mass times n!", 10):
        for n, fams in corpus.items():
            nfact = math.factorial(n)
            for fam in fams:
                assert pair_count(fam) == lubell_mass(fam) * nfact


def test_criterion_06_kleitman_inequality():
    with criterion(6, "2-chain count >= Kleitman bound on 1000 random families", 60):
        rng = random.Random(SEED + 6)
        checked = 0
        while checked < 1000:
            n = rng.randint(2, 10)
            if rng.random() < 0.25:
                base = middle_layers(n, 1)
                extra = [m for m in range(1 << n) if m not in base]
                added = rng.sample(extra, rng.randint(0, min(25, len(extra))))
                fam = SetFamily(n, base.members + tuple(added))
            else:
                fam = random_family(rng, n, min(1 << n, 120))
            assert count_2chains(fam) >= kleitman_lower_bound(len(fam), n)
            checked += 1


def test_criterion_07_f23_construction():
    with criterion(7, "pinned-pair construction: free and beats the middle layer", 30):
        forb = [y_poset(1, 2), y_prime_poset(1, 3)]
        for n in (6, 8):
            fam = f23_construction(n)
            free, _ = verify_free(fam, forb, "weak")
            assert free
            assert len(fam) > math.comb(n, n // 2)
        assert len(f23_construction(6)) == 22 > 20
        # the closed-form size candidate disagrees with enumeration: flagged
        assert f23_formula_size(6) == 17 != 22
        assert f23_formula_size(8) != len(f23_construction(8))


def test_criterion_08_tail_family():
    with criterion(8, "tail family: Lubell mass 2(h-1), Y(3,2)-pair free", 60):
        for h in (3, 4):
            for n in range(2 * h, 13):
                assert lubell_mass(lubell_tail_family(n, h)) == 2 * (h - 1)
        forb = [y_poset(3, 2), y_prime_poset(3, 2)]
        for n in range(6, 11):
            free, _ = verify_free(lubell_tail_family(n, 3), forb, "weak")
            assert free


def _random_dense_bigraph(rng, t):
    threshold = 2 * (t - 2)
    while True:
        n = rng.randint(6, 9)
        gap = rng.randint(2, 3)
        i = rng.randint(1, n - gap - 1)
        keep = 0.7 + 0.3 * rng.random()
        left = [m for m in full_layer(n, i) if rng.random() < keep]
        right = [m for m in full_layer(n, i + gap) if rng.random() < keep]
        g = InclusionBigraph(tuple(left), tuple(right))
        if g.vertex_count and g.average_degree() > threshold:
            return g


def test_criterion_09_claim1_embedding():
    with criterion(9, "dense bigraphs peel to cores embedding all height-2 trees", 60):
        rng = random.Random(SEED + 9)
        for t in (3, 4, 5):
            trees = all_height2_tree_posets(t)
            for _ in range(200):
                g = _random_dense_bigraph(rng, t)
                core = min_degree_subgraph(g, t - 1)
                assert core.vertex_count > 0
                for tree in trees:
                    emb = greedy_tree_embed(core, tree)
                    assert check_embedding(tree, emb.mapping, "rank_preserving")


def test_criterion_10_exhaustive_oracle():
    with criterion(10, "branch-and-bound equals exhaustive enumeration at n=4", 1800):
        combos = [
            [chain(2)],
            [y_poset(1, 2), y_prime_poset(1, 2)],
            [y_poset(2, 2), y_prime_poset(2, 2)],
        ]
        values = {}
        for forb in combos:
            for mode in ("weak", "rank_preserving"):
                oracle = exhaustive_max_free(4, forb, mode)
                searched = la_exact(4, forb, mode)
                assert oracle.value == searched.value
                free, _ = verify_free(searched.witness, forb, mode)
                assert free and len(searched.witness) == searched.value
                values[(len(forb[0].elements), forb[0].covers, mode)] = oracle.value
        rp_value = la_exact(
            4, [y_poset(2, 2), y_prime_poset(2, 2)], "rank_preserving"
        ).value
        assert rp_value >= 10
        assert rp_value == PINNED_N4_Y22_PAIR_RP


def test_criterion_11_copy_detector_oracle():
    with criterion(11, "matcher agrees with brute force on 10^4 random triples", 60):
        rng = random.Random(SEED + 11)
        modes = ("weak", "induced", "rank_preserving", "colored")
        done = 0
        while done < 10_000:
            fam = random_family(rng, 4, 8)
            mode = modes[done % 4]
            if mode == "rank_preserving" and rng.random() < 0.2:
                # exercise the error contract on a non-graded poset too
                from posetlab.poset import poset_from_covers

                poset = poset_from_covers(
                    "abcd", [("a", "b"), ("b", "d"), ("c", "d")]
                )
                with pytest.raises(NotGraded):
                    find_copy(fam, poset, mode)
                with pytest.raises(NotGraded):
                    find_copy_bruteforce(fam, poset, mode)
                done += 1
                continue
            poset = random_graded_poset(rng, 4)
            coloring = rank_coloring(poset) if mode == "colored" else None
            fast = find_copy(fam, poset, mode, coloring)
            slow = find_copy_bruteforce(fam, poset, mode, coloring)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert check_embedding(poset, fast.mapping, mode, coloring, fam)
                assert check_embedding(poset, slow.mapping, mode, coloring, fam)
            done += 1
