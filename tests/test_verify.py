"""The verify suite's seeded corpora."""
import random

import pytest

from posetlab.errors import InvalidParam
from posetlab.verify import _random_poset, run_suite


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
