"""Hypothesis strategies and seeded samplers shared by the test modules."""
import random

from hypothesis import strategies as st

from posetlab.family import SetFamily
from posetlab.poset import poset_from_covers


@st.composite
def dag_covers(draw, max_elements=6):
    """Labels plus forward-only relation pairs (guaranteed acyclic)."""
    k = draw(st.integers(min_value=1, max_value=max_elements))
    labels = [f"e{i}" for i in range(k)]
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            if draw(st.booleans()):
                pairs.append((labels[i], labels[j]))
    return labels, pairs


@st.composite
def posets(draw, max_elements=6):
    labels, pairs = draw(dag_covers(max_elements))
    return poset_from_covers(labels, pairs)


@st.composite
def families(draw, max_n=6, max_size=None):
    n = draw(st.integers(min_value=1, max_value=max_n))
    cap = (1 << n) if max_size is None else min(1 << n, max_size)
    members = draw(
        st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=cap)
    )
    return SetFamily(n, tuple(members))


def random_family(rng: random.Random, n, max_size):
    size = rng.randint(0, max_size)
    return SetFamily(n, tuple(rng.sample(range(1 << n), size)))


def random_graded_poset(rng: random.Random, max_elements=4):
    """Rejection-sample forward-edge DAG posets until graded."""
    while True:
        k = rng.randint(1, max_elements)
        labels = [f"e{i}" for i in range(k)]
        pairs = [
            (labels[i], labels[j])
            for i in range(k)
            for j in range(i + 1, k)
            if rng.random() < 0.4
        ]
        p = poset_from_covers(labels, pairs)
        if p.graded:
            return p
