"""The whole-lattice route against the matcher it stands in for."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetlab import lattice
from posetlab.embed import creates_copy_through, saturation_check, verify_free
from posetlab.errors import NotFree
from posetlab.family import SetFamily, middle_layers
from posetlab.poset import (
    antichain,
    chain,
    complete_multilevel,
    is_isomorphic,
    t_r3_poset,
    y_poset,
    y_prime_poset,
)
from posetlab.search import _detect_y_pair
from posetlab.verify import _random_poset

SHAPED = [chain(k) for k in range(2, 6)] + [
    make(h, s) for h in (1, 2, 3) for s in (1, 2, 3) for make in (y_poset, y_prime_poset)]
DECOYS = [t_r3_poset(2), complete_multilevel([2, 2]), antichain(3), chain(1)]


@st.composite
def cases(draw):
    """A family over [n <= 6], one or two forbidden posets and a mode.  The
    family is grown greedily in a drawn order by the matcher, so it is free
    and saturated, then maybe loses a member or gains a random set."""
    n = draw(st.integers(min_value=1, max_value=6))
    forbidden = draw(st.lists(st.sampled_from(SHAPED + DECOYS), min_size=1, max_size=2))
    mode = draw(st.sampled_from(["weak", "rank_preserving"]))
    members = []
    for m in draw(st.permutations(range(1 << n))):
        fam = SetFamily(n, tuple(members))
        if all(creates_copy_through(fam, p, mode, m) is None for p in forbidden):
            members.append(m)
    edit = draw(st.sampled_from(["keep", "drop", "add"]))
    if edit == "drop" and members:
        members.remove(draw(st.sampled_from(members)))
    elif edit == "add":
        members.append(draw(st.integers(min_value=0, max_value=(1 << n) - 1)))
    return SetFamily(n, tuple(members)), forbidden, mode


def _answers(fam, forbidden, mode):
    free, witness = verify_free(fam, forbidden, mode)
    try:
        result = saturation_check(fam, forbidden, mode)
        saturation = (result.saturated, result.counterexample)
    except NotFree as exc:
        saturation = ("not free", exc.witness.mapping)
    return free, witness and witness.mapping, saturation


@settings(max_examples=400)
@given(cases())
def test_route_answers_as_the_matcher(case):
    fam, forbidden, mode = case
    routed = _answers(fam, forbidden, mode)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "route", lambda *args: None)
        assert _answers(fam, forbidden, mode) == routed


def test_shape_agrees_with_is_isomorphic():
    rng, built, routed = random.Random(20240801), {}, 0
    for _ in range(3000):
        p = _random_poset(rng, 6, built)
        k = len(p)
        want = [(h, k - h, dual) for h in range(1, k) for dual in (False, True)
                if is_isomorphic(p, (y_prime_poset if dual else y_poset)(h, k - h))]
        if want and want[0][1] == 1:  # chain(k) is Y(k - 1, 1) and its dual
            want = [(k - 1, 1, False)]
        got = lattice.shape(p)
        assert [got] == want if want else got is None, p
        routed += got is not None
    assert routed > 300


@pytest.mark.parametrize("poset, want", [
    (chain(1), None), (chain(4), (3, 1, False)), (y_poset(2, 3), (2, 3, False)),
    (y_prime_poset(3, 2), (3, 2, True)), (t_r3_poset(2), None),
    (complete_multilevel([2, 2]), None), (complete_multilevel([1, 2, 1]), None),
    (antichain(3), None)])
def test_shape_of_named_posets(poset, want):
    assert lattice.shape(poset) == want


@pytest.mark.parametrize("forbidden, want", [
    ([chain(3), chain(3)], (2, 1)), ([y_poset(2, 1), y_prime_poset(2, 1)], (2, 1)),
    ([y_prime_poset(1, 3), y_poset(1, 3)], (1, 3)), ([y_poset(2, 2), y_poset(2, 2)], None),
    ([chain(1), chain(1)], None), ([y_poset(2, 2), y_prime_poset(2, 3)], None)])
def test_y_pair_read_from_shapes(forbidden, want):
    assert _detect_y_pair(forbidden) == want


def test_route_rules():
    m6 = middle_layers(6, 2)
    assert lattice.route(m6, [chain(2), y_poset(1, 2)], "weak", None) == [
        (1, 1, False), (1, 2, False)]
    assert lattice.route(m6, [chain(2), t_r3_poset(2)], "weak", None) is None
    assert lattice.route(m6, [chain(2)], "induced", None) is None
    assert lattice.route(m6, [chain(2)], "weak", {"x1": 0, "x2": 1}) is None
    # the bitmap of [20] outweighs a one-member tuple, so the matcher keeps it
    assert lattice.route(SetFamily(20, (0,)), [chain(2)], "weak", None) is None
    assert lattice.route(SetFamily(20, tuple(range(1 << 14))), [chain(2)], "weak", None)
    # verify_free reads the forbidden posets twice, so it takes them as a tuple
    assert verify_free(m6, iter([y_poset(2, 2), chain(2)]))[0] is False


def test_middle_layer_of_16_is_saturated_against_chain2():
    fam = middle_layers(16, 1)
    assert lattice.route(fam, [chain(2)], "weak", None) is not None
    result = saturation_check(fam, [chain(2)], "weak")
    assert (result.saturated, result.counterexample) == (True, None)
