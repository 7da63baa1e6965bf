import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from posetlab.chains import (
    chain_weight_average,
    count_2chains,
    count_2chains_between,
    kleitman_lower_bound,
    lubell_mass,
    pair_count,
    tail_count,
    tail_ratio_diagnostic,
)
from posetlab.errors import InvalidParam, TooLargeForEnumeration
from posetlab.family import (
    SetFamily,
    f23_construction,
    full_layer,
    lubell_tail_family,
    middle_layers,
)
from strategies import families, random_family


def test_lubell_mass_examples():
    assert lubell_mass(middle_layers(4, 2)) == 2
    powerset = SetFamily(4, tuple(range(16)))
    assert lubell_mass(powerset) == 5
    assert lubell_mass(lubell_tail_family(8, 3)) == 4


def test_lubell_mass_tail_family_sweep():
    for h in (3, 4):
        for n in range(2 * h, 13):
            assert lubell_mass(lubell_tail_family(n, h)) == 2 * (h - 1)


def test_pair_count_examples():
    assert pair_count(SetFamily(5, (0,))) == math.factorial(5)
    assert pair_count(middle_layers(4, 2)) == 48


@given(families(max_n=8, max_size=30))
def test_pair_count_is_lubell_times_factorial(fam):
    assert pair_count(fam) == lubell_mass(fam) * math.factorial(fam.n)


def test_chain_average_examples():
    assert chain_weight_average(SetFamily(3, (0,))) == 1
    assert chain_weight_average(middle_layers(4, 2)) == 10
    assert chain_weight_average(middle_layers(4, 2), via="enumeration") == 10


@settings(max_examples=30)
@given(families(max_n=6, max_size=25))
def test_chain_average_routes_agree_and_equal_size(fam):
    enum = chain_weight_average(fam, via="enumeration")
    formula = chain_weight_average(fam, via="formula")
    assert enum == formula == len(fam)


def test_chain_average_enumeration_cap():
    fam = SetFamily(9, (0,))
    with pytest.raises(TooLargeForEnumeration):
        chain_weight_average(fam, via="enumeration")
    with pytest.raises(InvalidParam):
        chain_weight_average(fam, via="sampling")


def test_count_2chains_examples():
    assert count_2chains(middle_layers(4, 2)) == 12
    assert count_2chains(middle_layers(5, 1)) == 0
    assert count_2chains(SetFamily(3, (0, 0b001, 0b011))) == 3


def test_count_2chains_between_full_layers():
    for n, i, j in ((4, 2, 3), (5, 2, 3), (6, 2, 5), (7, 1, 4)):
        fam = SetFamily(n, tuple(full_layer(n, i) + full_layer(n, j)))
        assert count_2chains_between(fam, i, j) == math.comb(n, j) * math.comb(j, i)


def test_count_2chains_between_requires_i_lt_j():
    with pytest.raises(InvalidParam):
        count_2chains_between(middle_layers(4, 2), 3, 2)


@given(families(max_n=6, max_size=30))
def test_count_2chains_matches_all_pairs_loop(fam):
    nested = sum(1 for a in fam for b in fam if a != b and a & ~b == 0)
    assert count_2chains(fam) == nested


def test_count_2chains_matches_all_pairs_loop_on_f23():
    members = f23_construction(14).members
    nested = sum(1 for a in members for b in members if a != b and a & ~b == 0)
    assert count_2chains(f23_construction(14)) == nested == 1848


@given(families(max_n=8, max_size=40))
def test_lubell_sums_match_per_member_sums(fam):
    n = fam.n
    assert lubell_mass(fam) == sum(
        (Fraction(1, math.comb(n, bin(m).count("1"))) for m in fam), Fraction(0))
    assert pair_count(fam) == sum(
        math.factorial(bin(m).count("1")) * math.factorial(n - bin(m).count("1")) for m in fam)


def test_kleitman_examples():
    assert kleitman_lower_bound(6, 4) == 0
    assert kleitman_lower_bound(10, 4) == 8
    # (11 - 10) * 5/2 = 2.5; an integer count at least 2.5 is at least 3
    assert kleitman_lower_bound(11, 5) == 3
    assert kleitman_lower_bound(0, 6) == 0


def test_kleitman_matches_the_fraction_ceiling():
    for n in range(1, 25):
        for m in range(201):
            value = Fraction((m - math.comb(n, n // 2)) * n, 2)
            assert kleitman_lower_bound(m, n) == max(0, math.ceil(value))


def _max_family_with_few_2chains(n, max_chains):
    """Largest family over [n] with at most max_chains 2-chains, by
    branch-and-bound over masks; independent of the chains module."""
    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    best = 0

    def extend(i, chosen, pairs):
        nonlocal best
        if len(chosen) > best:
            best = len(chosen)
        if i == len(masks) or len(chosen) + (len(masks) - i) <= best:
            return
        s = masks[i]
        new_pairs = sum(1 for a in chosen if a & ~s == 0 or s & ~a == 0)
        if pairs + new_pairs <= max_chains:
            chosen.append(s)
            extend(i + 1, chosen, pairs + new_pairs)
            chosen.pop()
        extend(i + 1, chosen, pairs)

    extend(0, [], 0)
    return best


def test_kleitman_11_over_5_via_exhaustive_search():
    # no 11-member family over [5] has fewer than 3 two-chains
    assert _max_family_with_few_2chains(5, 2) == 10


def test_kleitman_inequality_random(rng):
    for _ in range(300):
        n = rng.randint(2, 8)
        fam = random_family(rng, n, min(1 << n, 60))
        assert count_2chains(fam) >= kleitman_lower_bound(len(fam), n)


def test_tail_count_small_n_all_inside_window():
    assert tail_count(16) == 0
    assert tail_count(2) == 0
    with pytest.raises(InvalidParam):
        tail_count(1)


def test_tail_count_n100():
    # window half-width 2*sqrt(100 ln 100) ~ 42.9, so sizes <= 7 and >= 93
    expected = 2 * sum(math.comb(100, k) for k in range(8))
    assert tail_count(100) == expected


def test_tail_count_log_base_parameter():
    # base-2 logs widen the window threshold, never shrinking the count
    assert tail_count(100, log_base=2) <= tail_count(100)


def test_tail_ratio_diagnostic_finite():
    d = tail_ratio_diagnostic(1000)
    assert d["tailCount"] > 0
    assert 0 < d["ratioToScale"] < 1


def test_chain_average_uses_exact_rationals():
    fam = SetFamily(5, (0b00001, 0b00011))
    avg = chain_weight_average(fam)
    assert isinstance(avg, Fraction)
    assert avg == 2
