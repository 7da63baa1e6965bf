import math
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posetlab.errors import ElementOutOfRange, InvalidParam, OddN, ParseError, PosetlabError
from posetlab.family import (
    SetFamily,
    canonical_key,
    canonical_masks,
    elements_of,
    f23_construction,
    f23_formula_size,
    full_layer,
    inclusion_rows,
    layer_profile,
    lubell_tail_family,
    mask_of,
    middle_layers,
    parse_family,
    serialize_family,
    sigma,
)
from strategies import families


def test_mask_round_trip():
    assert mask_of([1, 3]) == 0b101
    assert elements_of(0b101) == [1, 3]
    assert elements_of(0) == []
    assert elements_of(mask_of([1, 8, 9, 16, 17, 24])) == [1, 8, 9, 16, 17, 24]


@pytest.mark.parametrize("mask", [1 << 24, -1])
def test_elements_of_rejects_a_mask_outside_the_ground_set(mask):
    with pytest.raises(ElementOutOfRange, match=rf"mask {mask} does not fit in \[24\]"):
        elements_of(mask)


def test_canonical_member_order():
    fam = SetFamily(3, (0b111, 0b001, 0b010, 0b011, 0b001))
    assert fam.members == (0b001, 0b010, 0b011, 0b111)


@pytest.mark.parametrize("n", range(1, 11))
def test_canonical_masks_is_the_sorted_powerset(n):
    assert list(canonical_masks(n)) == sorted(range(1 << n), key=canonical_key)


def test_mask_out_of_range():
    with pytest.raises(ElementOutOfRange):
        SetFamily(2, (0b100,))
    with pytest.raises(InvalidParam):
        SetFamily(0, ())
    with pytest.raises(InvalidParam):
        SetFamily(25, ())


@pytest.mark.parametrize("sets", [[[0]], [[4]], [[1, -2]], [[1.0]], [["1"]], [[None]]])
def test_from_sets_rejects_an_element_outside_the_ground_set(sets):
    with pytest.raises(ElementOutOfRange, match=r"outside \[1\.\.3\]"):
        SetFamily.from_sets(3, sets)


def test_sigma_values():
    assert sigma(4, 2) == 10
    assert sigma(5, 2) == 20
    assert sigma(6, 2) == 35
    with pytest.raises(InvalidParam):
        sigma(4, 0)
    with pytest.raises(InvalidParam):
        sigma(4, 6)


def test_sigma_all_layers_is_power_of_two():
    for n in range(1, 13):
        assert sigma(n, n + 1) == 2 ** n


def test_middle_layers_size_matches_sigma():
    for n in range(1, 13):
        for h in range(1, n + 2):
            assert len(middle_layers(n, h)) == sigma(n, h)


def test_middle_layers_examples():
    assert layer_profile(middle_layers(4, 2)) == [0, 0, 6, 4, 0]
    assert layer_profile(middle_layers(5, 1)) == [0, 0, 0, 10, 0, 0]
    assert len(middle_layers(6, 2)) == 35


def test_layer_profile_singleton():
    assert layer_profile(SetFamily(3, (0,))) == [1, 0, 0, 0]


def test_f23_enumerated_sizes():
    f6 = f23_construction(6)
    assert len(f6) == 22
    assert layer_profile(f6) == [0, 0, 0, 16, 6, 0, 0]
    assert len(f6) > math.comb(6, 3)
    f8 = f23_construction(8)
    assert len(f8) == 75 > math.comb(8, 4)


def test_f23_membership_conditions():
    n = 8
    pins = mask_of([n - 1, n])
    for m in f23_construction(n):
        pc = bin(m).count("1")
        if pc == n // 2 + 1:
            assert m & pins == pins
        else:
            assert pc == n // 2 and bin(m & pins).count("1") <= 1


def test_f23_size_via_independent_binomial_count():
    # sets of size n/2+1 containing both pins: C(n-2, n/2-1); sets of size
    # n/2 missing at least one pin: C(n, n/2) - C(n-2, n/2-2)
    for n in range(4, 13, 2):
        expected = (
            math.comb(n - 2, n // 2 - 1)
            + math.comb(n, n // 2)
            - math.comb(n - 2, n // 2 - 2)
        )
        assert len(f23_construction(n)) == expected


def test_f23_formula_disagrees_with_enumeration():
    # the closed form undercounts; reports flag this instead of choosing
    assert f23_formula_size(6) == 17 != len(f23_construction(6))
    assert f23_formula_size(8) != len(f23_construction(8))


def test_f23_odd_n_rejected():
    with pytest.raises(OddN):
        f23_construction(5)


def test_lubell_tail_family():
    fam = lubell_tail_family(8, 3)
    assert len(fam) == 18
    assert [k for k, c in enumerate(layer_profile(fam)) if c] == [0, 1, 7, 8]
    assert len(lubell_tail_family(6, 3)) == 14
    with pytest.raises(InvalidParam):
        lubell_tail_family(5, 3)
    with pytest.raises(InvalidParam):
        lubell_tail_family(8, 2)


def test_full_layer():
    assert full_layer(4, 0) == [0]
    assert len(full_layer(5, 2)) == 10
    for n in range(1, 11):
        for k in range(n + 1):
            assert full_layer(n, k) == sorted(
                mask_of(c) for c in combinations(range(1, n + 1), k))


def test_constructions_reject_large_n_before_enumerating():
    for build in (
        lambda: full_layer(30, 15),
        lambda: middle_layers(30, 2),
        lambda: f23_construction(30),
        lambda: lubell_tail_family(30, 3),
    ):
        with pytest.raises(InvalidParam):
            build()


def test_parse_family_basic():
    fam = parse_family("n=3\n1,2\n3\n")
    assert fam.n == 3
    assert fam.members == (0b100, 0b011)
    empty = parse_family("n=4\n-\n")
    assert empty.members == (0,)
    assert parse_family("n=4\n - \n") == empty  # the padded line is read element by element
    # blank lines are skipped but still counted for the line numbers
    assert parse_family("n=3\n1,2\n\n  \n3\n") == fam
    with pytest.raises(ElementOutOfRange) as err:
        parse_family("n=3\n\n4\n")
    assert err.value.lineno == 3


def test_parse_family_reads_lines_off_the_canonical_text():
    """Lines other than a mask's own text are read element by element:
    spaces, leading zeros, "-" among elements and repeats."""
    assert parse_family("n=12\n 1, 2\n03\n10,11,12\n").members == (0b100, 0b011, 0b111 << 9)
    for line, error in (("1,1", ParseError), ("-,1", ParseError), ("13", ElementOutOfRange),
                        ("1,-", ParseError), ("1,2,", ParseError)):
        with pytest.raises(error) as err:
            parse_family(f"n=12\n5\n{line}\n")
        assert err.value.lineno == 3


def test_parse_family_errors():
    with pytest.raises(ParseError):
        parse_family("m=3\n1\n")
    with pytest.raises(ElementOutOfRange) as err:
        parse_family("n=3\n4\n")
    assert err.value.lineno == 2
    with pytest.raises(ParseError):
        parse_family("n=3\n2,1\n")
    with pytest.raises(ParseError):
        parse_family("n=3\n1,,2\n")
    with pytest.raises(ParseError):
        parse_family("")
    # 5000 digits is past int()'s string limit: a ParseError on the line, not a ValueError
    for text, lineno in (("n=" + "9" * 5000 + "\n1\n", 1), ("n=3\n1\n" + "9" * 5000 + "\n", 3)):
        with pytest.raises(ParseError) as err:
            parse_family(text)
        assert err.value.lineno == lineno
        assert str(err.value) == f"line {lineno}: 5000-digit number is too long"


def test_line_errors_share_only_the_line_prefix():
    for cls in (ParseError, ElementOutOfRange):
        assert issubclass(cls, PosetlabError)
        assert str(cls("bad", 4)) == "line 4: bad" and cls("bad", 4).lineno == 4
        assert str(cls("bad")) == "bad" and cls("bad").lineno is None
    assert not issubclass(ParseError, ElementOutOfRange)
    assert not issubclass(ElementOutOfRange, ParseError)


def test_serialize_canonical():
    fam = SetFamily(3, (0b111, 0, 0b011))
    assert serialize_family(fam) == "n=3\n-\n1,2\n1,2,3\n"
    assert serialize_family(SetFamily(24, (mask_of([8, 9, 24]),))) == "n=24\n8,9,24\n"


@given(families(max_n=6))
def test_parse_serialize_round_trip(fam):
    assert parse_family(serialize_family(fam)) == fam


@given(families(max_n=8), st.randoms(use_true_random=False))
def test_member_order_and_repeats_give_the_same_family(fam, rnd):
    canonical = list(fam.members)
    shuffled = rnd.sample(canonical, len(canonical))
    repeated = shuffled + [rnd.choice(canonical) for _ in canonical[::2]]
    for members in (canonical, shuffled, repeated):
        got = SetFamily(fam.n, tuple(members))
        assert got == fam
        assert got.members == tuple(sorted(set(canonical), key=canonical_key))


@st.composite
def size_groups(draw):
    """Two lists of distinct masks over [n], n <= 24, of one size each (the
    lower size below the upper), either list possibly empty."""
    n = draw(st.integers(min_value=1, max_value=24))
    i = draw(st.integers(min_value=0, max_value=n - 1))
    j = draw(st.integers(min_value=i + 1, max_value=n))

    def group(k):
        sets = st.sets(st.sampled_from(range(n)), min_size=k, max_size=k)
        return sorted({mask_of(e + 1 for e in s) for s in draw(st.lists(sets, max_size=12))})

    return group(i), group(j)


@given(size_groups())
def test_inclusion_rows_match_the_pair_scan(groups):
    lower, upper = groups
    rows = list(inclusion_rows(lower, upper))
    assert rows == [sum(1 << r for r, b in enumerate(upper) if a & ~b == 0) for a in lower]
