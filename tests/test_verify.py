"""The verify suite's seeded corpora."""
import random

import pytest

from posetlab.errors import InvalidParam
from posetlab.verify import (
    _random_poset,
    check_f23,
    check_middle_saturation,
    check_small_n_oracle,
    run_suite,
)


def test_built_posets_keep_the_corpus():
    """Looking a draw up in built leaves every poset and every later draw
    as they are without it; only 75 draws exist at four elements."""
    rng, rng2 = random.Random(20240805), random.Random(20240805)
    built = {}
    for _ in range(10_000):
        assert _random_poset(rng, 4, built) == _random_poset(rng2, 4)
    assert rng.getstate() == rng2.getstate()
    assert len(built) <= 75


@pytest.mark.parametrize("suite", ["ful", "", "ALL", None])
def test_run_suite_rejects_unknown_suite_names(suite):
    with pytest.raises(InvalidParam, match="unknown suite"):
        run_suite(suite=suite, max_n=2)


def test_small_n_oracle_check_passes_with_the_pinned_value():
    """Only `verify paper --suite all` runs this check."""
    res = check_small_n_oracle()
    assert res.passed
    assert res.observed["y22pair_rank_preserving"] == "10"


def test_middle_saturation_check_reaches_n7():
    res = check_middle_saturation(7)
    assert res.passed
    assert res.observed["perN"] == {str(n): "free=True,saturated=True" for n in (5, 6, 7)}


def test_f23_check_reports_the_closed_form_beside_the_flagged_candidate():
    res = check_f23()
    assert res.passed
    for n, size in (("6", 22), ("8", 75)):
        assert f"formulaMatches=False,closedForm={size},closedFormMatches=True" in res.observed[n]
