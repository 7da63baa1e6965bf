import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetlab import embed
from posetlab.embed import MODES, find_copy, find_copy_bruteforce
from posetlab.errors import InvalidParam, NotFree, NotGraded
from posetlab.family import SetFamily, canonical_key, middle_layers, sigma
from posetlab.poset import (
    antichain,
    chain,
    complete_multilevel,
    poset_from_covers,
    rank_coloring,
    t_r3_poset,
    y_poset,
    y_prime_poset,
)
from posetlab.search import (
    SearchConfig,
    _detect_y_pair,
    exhaustive_max_free,
    la_exact,
    max_free_layers,
    saturation_check,
    verify_free,
)
from strategies import posets, random_family, random_graded_poset

C2 = chain(2)
Y12, Y12P = y_poset(1, 2), y_prime_poset(1, 2)
Y22, Y22P = y_poset(2, 2), y_prime_poset(2, 2)


def test_sperner_small_n():
    for n in (2, 3, 4):
        out = la_exact(n, [C2], "weak")
        assert out.value == math.comb(n, n // 2)
        assert out.exact
        assert len(out.witness) == out.value
        free, _ = verify_free(out.witness, [C2], "weak")
        assert free


def test_y12_pair_n4():
    out = la_exact(4, [Y12, Y12P], "weak")
    assert out.value == 6 and out.exact


def test_witness_is_free_and_matches_value():
    out = la_exact(4, [Y22, Y22P], "rank_preserving")
    assert out.value == len(out.witness)
    free, _ = verify_free(out.witness, [Y22, Y22P], "rank_preserving")
    assert free


def test_search_is_deterministic():
    a = la_exact(4, [Y12, Y12P], "rank_preserving")
    b = la_exact(4, [Y12, Y12P], "rank_preserving")
    assert (a.value, a.witness, a.nodes_explored) == (b.value, b.witness, b.nodes_explored)


N_POSET = poset_from_covers("abcd", [("a", "c"), ("b", "c"), ("b", "d")])

# (mode, forbidden, coloring) -> (value, nodes_explored, witness members) at
# n = 4.  The node count and the witness pin the shape of the search tree,
# which a faster walk of it must keep.
PINNED_TREES = [
    ("weak", (Y12, Y12P), None, (6, 251, (1, 2, 4, 9, 10, 12))),
    ("weak", (chain(3),), None, (10, 2621, (1, 2, 4, 8, 3, 5, 6, 9, 10, 12))),
    ("induced", (N_POSET,), None, (10, 2666, (0, 1, 2, 5, 6, 9, 10, 12, 13, 15))),
    ("induced", (Y12,), None, (8, 1970, (1, 2, 4, 9, 10, 12, 11, 15))),
    ("rank_preserving", (Y22, Y22P), None, (10, 2399, (1, 2, 4, 8, 3, 5, 6, 9, 10, 12))),
    ("colored", (Y12,), {"x1": 0, "y1": 1, "y2": 2}, (7, 2800, (3, 5, 6, 9, 10, 12, 7))),
    ("colored", (N_POSET,), {"a": 0, "b": 0, "c": 1, "d": 1},
     (10, 3139, (0, 1, 2, 5, 6, 9, 10, 12, 7, 15))),
]


@pytest.mark.parametrize("mode,forbidden,coloring,pinned", PINNED_TREES)
def test_search_tree_is_pinned(mode, forbidden, coloring, pinned):
    out = la_exact(4, forbidden, mode, coloring=coloring)
    assert out.exact
    assert (out.value, out.nodes_explored, out.witness.members) == pinned


@pytest.mark.parametrize("mode,forbidden,coloring,pinned", PINNED_TREES)
def test_search_tree_is_pinned_with_the_interval_route(mode, forbidden, coloring, pinned,
                                                       monkeypatch):
    """Every placed neighbour takes the interval route, so its listing
    from the search's member set must give the scan's candidates."""
    monkeypatch.setattr(embed, "_INTERVAL_MIN", 0)
    monkeypatch.setattr(embed, "_INTERVAL_COST", 0)
    out = la_exact(4, forbidden, mode, coloring=coloring)
    assert (out.value, out.nodes_explored, out.witness.members) == pinned


@settings(max_examples=100)
@given(forbidden=st.lists(posets(max_elements=4), min_size=1, max_size=2),
       n=st.integers(1, 4), mode=st.sampled_from(MODES), symmetry=st.booleans(),
       own_class=st.integers(0, 15))
def test_la_exact_matches_exhaustive_oracle(forbidden, n, mode, symmetry, own_class):
    coloring = None
    if mode == "colored":
        # one poset: rank classes, the elements in own_class on classes of their own
        forbidden = forbidden[:1]
        coloring = {x: 100 + i if own_class >> i & 1 else r
                    for i, (x, r) in enumerate(rank_coloring(forbidden[0]).items())}
    cfg = SearchConfig(symmetry_pruning=symmetry)
    try:
        want = exhaustive_max_free(n, forbidden, mode, coloring)
    except NotGraded:
        with pytest.raises(NotGraded):
            la_exact(n, forbidden, mode, cfg, coloring)
        return
    got = la_exact(n, forbidden, mode, cfg, coloring)
    assert got.exact and got.value == len(got.witness) == want.value == len(want.witness)
    for witness in (got.witness, want.witness):
        assert verify_free(witness, forbidden, mode, coloring) == (True, None)


def test_deep_budgeted_search_is_inexact():
    for n in (10, 12):
        out = la_exact(n, [C2], "weak", SearchConfig(budget_ms=300))
        assert out.exact is False
        free, _ = verify_free(out.witness, [C2], "weak")
        assert free and len(out.witness) == out.value


def test_search_config_ranges():
    with pytest.raises(InvalidParam):
        la_exact(3, [C2], "weak", SearchConfig(budget_ms=-5))


def test_symmetry_pruning_preserves_value():
    plain = la_exact(4, [C2], "weak")
    pruned = la_exact(4, [C2], "weak", SearchConfig(symmetry_pruning=True))
    assert plain.value == pruned.value
    assert pruned.nodes_explored <= plain.nodes_explored
    with pytest.raises(InvalidParam):
        la_exact(8, [C2], "weak", SearchConfig(symmetry_pruning=True))


@pytest.mark.parametrize("h,s", [(1, 1), (1, 3), (1, 4), (2, 1), (2, 3), (3, 1), (3, 2)])
def test_capped_y_pairs_match_exhaustive(h, s):
    # The Y-pair level cap is always on in these modes; the oracle route
    # has no cap, so equal values show the cap cuts no optimum.
    forbidden = [y_poset(h, s), y_prime_poset(h, s)]
    assert _detect_y_pair(forbidden) == (h, s)
    for mode in ("weak", "rank_preserving"):
        for n in (2, 3, 4) if (h, s) in ((1, 3), (2, 1)) else (2, 3):
            out = la_exact(n, forbidden, mode)
            assert out.exact
            assert out.value == exhaustive_max_free(n, forbidden, mode).value, (mode, n)
            free, _ = verify_free(out.witness, forbidden, mode)
            assert free and len(out.witness) == out.value


def test_deadline_ignores_wall_clock_jumps(monkeypatch):
    real_time = time.time
    calls = []

    def jumping_time():
        calls.append(None)
        return real_time() + (0 if len(calls) == 1 else 10**6)

    monkeypatch.setattr(time, "time", jumping_time)
    out = la_exact(3, [C2], "weak", SearchConfig(budget_ms=60000))
    assert out.exact is True
    assert out.value == 3


def test_budget_surfaces_as_inexact():
    out = la_exact(6, [C2], "weak", SearchConfig(budget_ms=50))
    assert not out.exact
    assert out.value <= math.comb(6, 3)
    free, _ = verify_free(out.witness, [C2], "weak")
    assert free


def test_construction_seeds_are_lower_bounds():
    fam = middle_layers(4, 2)
    free, _ = verify_free(fam, [Y22, Y22P], "rank_preserving")
    assert free
    out = la_exact(4, [Y22, Y22P], "rank_preserving")
    assert out.value >= len(fam)


def test_mode_monotonicity_at_n4():
    for forb in ([C2], [Y12, Y12P], [Y22, Y22P]):
        weak = la_exact(4, forb, "weak").value
        induced = la_exact(4, forb, "induced").value
        rank_preserving = la_exact(4, forb, "rank_preserving").value
        assert weak <= induced
        assert weak <= rank_preserving


def test_search_input_validation():
    with pytest.raises(InvalidParam):
        la_exact(0, [C2], "weak")
    with pytest.raises(InvalidParam):
        la_exact(13, [C2], "weak")
    non_graded = poset_from_covers("abcd", [("a", "b"), ("b", "d"), ("c", "d")])
    with pytest.raises(NotGraded):
        la_exact(3, [non_graded], "rank_preserving")


def test_exhaustive_matches_bnb_at_n3():
    for forb in ([C2], [Y12, Y12P]):
        for mode in ("weak", "induced", "rank_preserving"):
            assert exhaustive_max_free(3, forb, mode).value == la_exact(3, forb, mode).value


def test_exhaustive_cap():
    with pytest.raises(InvalidParam):
        exhaustive_max_free(5, [C2], "weak")


def test_empty_forbidden_gives_powerset():
    out = la_exact(3, [], "weak")
    assert out.value == 8


def test_saturation_middle_layer_vs_chain():
    res = saturation_check(middle_layers(4, 1), [C2], "weak")
    assert res.saturated


def test_saturation_counterexample():
    res = saturation_check(SetFamily(2, (1,)), [C2], "weak")
    assert not res.saturated
    assert res.counterexample == 2


def test_saturation_rejects_unfree_input():
    with pytest.raises(NotFree):
        saturation_check(middle_layers(4, 2), [C2], "weak")


def test_saturation_middle_two_layers_n5():
    res = saturation_check(middle_layers(5, 2), [Y22, Y22P], "rank_preserving")
    assert res.saturated


def test_saturation_check_matches_definition(rng):
    """saturation_check against the definition, read off the permutation
    matcher: NotFree exactly when the family holds a copy, else the first
    outside set in canonical order whose addition holds none."""

    def holds_copy(fam, forb, mode, coloring):
        return any(find_copy_bruteforce(fam, p, mode, coloring) for p in forb)

    for trial in range(600):
        n = rng.randint(1, 4)
        mode = MODES[trial % 4]
        forb = []
        while len(forb) < (1 if mode == "colored" else rng.randint(1, 2)):
            p = random_graded_poset(rng, 4)
            if len(p.elements) > 1:
                forb.append(p)
        coloring = None
        if mode == "colored":
            coloring = {
                x: r if rng.random() < 0.5 else 100 + i
                for i, (x, r) in enumerate(rank_coloring(forb[0]).items())
            }
        kind = trial // 4 % 3  # random, maximal free, maximal free less one set
        if kind == 0:
            fam = random_family(rng, n, min(1 << n, 5))
        else:
            members = []
            for s in rng.sample(range(1 << n), 1 << n):
                grown = SetFamily(n, (*members, s))
                if not any(find_copy(grown, p, mode, coloring) for p in forb):
                    members.append(s)
            if members and kind == 2:
                members.remove(rng.choice(members))
            fam = SetFamily(n, tuple(members))
        if holds_copy(fam, forb, mode, coloring):
            with pytest.raises(NotFree):
                saturation_check(fam, forb, mode, coloring)
            continue
        want = next(
            (
                s
                for s in sorted(range(1 << n), key=canonical_key)
                if s not in fam
                and not holds_copy(SetFamily(n, fam.members + (s,)), forb, mode, coloring)
            ),
            None,
        )
        res = saturation_check(fam, forb, mode, coloring)
        assert (res.saturated, res.counterexample) == (want is None, want)


def test_saturation_check_stops_at_the_first_counterexample():
    """The probes run in canonical order without a list of all 2^n masks."""
    tracemalloc.start()
    try:
        res = saturation_check(SetFamily(20, (0,)), [chain(3)], "weak")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.saturated, res.counterexample) == (False, 1)
    assert peak < 1 << 20


@pytest.mark.parametrize("mode", ["weak", "induced", "rank_preserving"])
def test_max_free_layers_matches_scan_from_one_layer(mode):
    """Starting at the height skips only layer counts too few to hold a copy."""
    posets = [chain(1), chain(2), chain(3), chain(5), antichain(3), Y12, Y12P, Y22, Y22P,
              y_poset(1, 3), t_r3_poset(2), complete_multilevel([2, 2])]
    for poset in posets:
        for n in range(1, 8):
            want = next(
                (h - 1 for h in range(1, n + 2)
                 if find_copy(middle_layers(n, h), poset, mode) is not None),
                n + 1,
            )
            assert max_free_layers(poset, n, mode) == want, (poset, n)


def test_max_free_layers_examples():
    assert max_free_layers(C2, 5, "weak") == 1
    assert max_free_layers(y_poset(2, 2), 6, "weak") == 2
    assert max_free_layers(t_r3_poset(2), 8, "rank_preserving") == 2
    assert max_free_layers(chain(9), 4, "weak") == 5  # whole lattice is too short


def test_pinned_value_n4_y22_pair_rank_preserving():
    assert la_exact(4, [Y22, Y22P], "rank_preserving").value == 10
    assert sigma(4, 2) == 10
