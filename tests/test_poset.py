import json

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from posetlab.errors import CycleError, DuplicateLabel, InvalidParam
from posetlab.poset import (
    all_height2_tree_posets,
    antichain,
    chain,
    classify_tree,
    complete_multilevel,
    dual,
    gen_named,
    height,
    is_isomorphic,
    poset_from_covers,
    poset_from_json,
    poset_to_json,
    rank_coloring,
    t_r3_poset,
    y_poset,
    y_prime_poset,
)
from strategies import dag_covers, posets


def test_two_chain():
    p = poset_from_covers(["a", "b"], [("a", "b")])
    assert p.covers == (("a", "b"),)
    assert p.le("a", "b") and not p.le("b", "a")


def test_y22_shape():
    p = y_poset(2, 2)
    assert len(p.elements) == 4
    assert len(p.covers) == 3
    assert p.le("x1", "y2")
    assert not p.le("y1", "y2") and not p.le("y2", "y1")


def test_cycle_rejected():
    with pytest.raises(CycleError):
        poset_from_covers(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleError):
        poset_from_covers(["a"], [("a", "a")])


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabel):
        poset_from_covers(["a", "a"], [])


def test_unknown_label_rejected():
    with pytest.raises(InvalidParam):
        poset_from_covers(["a"], [("a", "zzz")])


def test_empty_poset_rejected():
    with pytest.raises(InvalidParam):
        poset_from_covers([], [])
    with pytest.raises(InvalidParam):
        poset_from_json('{"elements": [], "covers": []}')


def test_transitive_reduction_drops_implied_pair():
    p = poset_from_covers("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert p.covers == (("a", "b"), ("b", "c"))


@given(dag_covers())
def test_reduction_idempotent(data):
    labels, pairs = data
    once = poset_from_covers(labels, pairs)
    twice = poset_from_covers(once.elements, once.covers)
    assert once == twice


@given(dag_covers())
def test_closure_matches_networkx(data):
    labels, pairs = data
    p = poset_from_covers(labels, pairs)
    g = nx.DiGraph()
    g.add_nodes_from(labels)
    g.add_edges_from(pairs)
    closure = nx.transitive_closure(g, reflexive=True)
    for a in labels:
        for b in labels:
            assert p.le(a, b) == closure.has_edge(a, b)


def test_dual_of_y12_has_unique_maximal():
    lam = dual(y_poset(1, 2))
    maximal = [x for x in lam.elements if not lam.cover_children[lam.index[x]]]
    assert maximal == ["x1"]
    assert lam.graded


@given(posets())
def test_dual_involution(p):
    assert dual(dual(p)) == p


def test_antichain_self_dual():
    a3 = antichain(3)
    assert dual(a3) == a3


def test_rank_assignment_y():
    for h, s in ((1, 2), (2, 2), (3, 4)):
        p = y_poset(h, s)
        ranks = rank_coloring(p)
        assert p.graded
        for i in range(1, h + 1):
            assert ranks[f"x{i}"] == i - 1
        for j in range(1, s + 1):
            assert ranks[f"y{j}"] == h


def test_rank_assignment_non_graded():
    p = poset_from_covers("abcd", [("a", "b"), ("b", "d"), ("c", "d")])
    assert rank_coloring(p) == {"a": 0, "b": 1, "c": 0, "d": 2}
    assert not p.graded


def test_rank_assignment_antichain():
    p = antichain(4)
    assert set(rank_coloring(p).values()) == {0}
    assert p.graded


def test_height():
    assert height(chain(5)) == 5
    assert height(y_poset(2, 2)) == 3
    assert height(antichain(3)) == 1
    assert height(chain(1)) == 1


def test_gen_named_dispatch():
    assert gen_named("y", (2, 2)) == y_poset(2, 2)
    assert gen_named("chain", (1,)) == chain(1)
    assert len(gen_named("complete_multilevel", (2, 2)).covers) == 4
    with pytest.raises(InvalidParam):
        gen_named("y", (2,))
    with pytest.raises(InvalidParam):
        gen_named("zigzag", (1,))
    with pytest.raises(InvalidParam):
        gen_named("chain", (0,))


def test_generators_hold_the_64_element_cap():
    at_cap = [chain(64), antichain(64), y_poset(60, 4), y_prime_poset(4, 60),
              complete_multilevel([30, 34]), t_r3_poset(7), t_r3_poset(7, "children")]
    assert [len(p) for p in at_cap] == [64, 64, 64, 64, 64, 50, 57]
    over_cap = [(chain, 65), (antichain, 65), (y_poset, 61, 4), (y_prime_poset, 4, 61),
                (complete_multilevel, [30, 35]), (t_r3_poset, 8), (t_r3_poset, 8, "children")]
    for build, *args in over_cap:
        with pytest.raises(InvalidParam, match="at most 64"):
            build(*args)


def test_t_r3_degree_reading():
    t = t_r3_poset(2)
    assert len(t.elements) == 5
    deg = {x: len(t.cover_parents[t.index[x]]) + len(t.cover_children[t.index[x]])
           for x in t.elements}
    leaves = [x for x in t.elements if not t.cover_children[t.index[x]]]
    assert len(leaves) == 2
    for x in t.elements:
        if x not in leaves:
            assert deg[x] == 2
    t3 = t_r3_poset(3)
    assert len(t3.elements) == 1 + 3 + 3 * 2


def test_t_r3_children_reading():
    t = t_r3_poset(2, reading="children")
    assert len(t.elements) == 1 + 2 + 4
    for x in t.elements:
        kids = t.cover_children[t.index[x]]
        assert len(kids) in (0, 2)


def test_classify_tree():
    assert classify_tree(y_poset(2, 3)) == "monotone_increasing"
    assert classify_tree(y_prime_poset(2, 3)) == "monotone_decreasing"
    assert classify_tree(complete_multilevel([2, 2])) == "not_tree"
    assert classify_tree(dual(t_r3_poset(2))) == "monotone_decreasing"
    assert classify_tree(antichain(3)) == "not_tree"
    assert classify_tree(chain(3)) == "monotone_increasing"
    n_poset = poset_from_covers("abcd", [("a", "b"), ("c", "b"), ("c", "d")])
    assert classify_tree(n_poset) == "tree"
    # as many covers as a tree, but a 4-cycle plus an isolated element
    diamond = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    assert classify_tree(poset_from_covers("abcde", diamond)) == "not_tree"


def test_generators_are_graded_with_unit_cover_jumps():
    for p in (chain(4), y_poset(3, 2), t_r3_poset(3), complete_multilevel([2, 3, 1])):
        ranks = rank_coloring(p)
        assert p.graded
        for a, b in p.covers:
            assert ranks[b] - ranks[a] == 1


def test_y_generator_properties():
    for h in (1, 2, 3):
        for s in (1, 2, 3):
            p = y_poset(h, s)
            assert height(p) == h + 1
            assert p.graded
            assert classify_tree(p) == "monotone_increasing"


@given(posets())
def test_cached_order_data_matches_independent_routes(p):
    """The order data cached on the poset against routes that do not share
    its code: chain lengths by recursion over the relation, the ranks of the
    dual, and networkx on the Hasse graph."""
    n = len(p.elements)

    def longest_chains(rel):
        """Per element i, the longest chain among the other elements of rel[i]."""
        memo = {}

        def walk(i):
            if i not in memo:
                side = [j for j in range(n) if j != i and rel[i] >> j & 1]
                memo[i] = max((1 + walk(j) for j in side), default=0)
            return memo[i]

        return [walk(i) for i in range(n)]

    below, above = longest_chains(p.down), longest_chains(p.up)
    graded = all(below[p.index[b]] - below[p.index[a]] == 1 for a, b in p.covers)
    assert list(p.ranks) == below and p.graded == graded
    assert rank_coloring(p) == dict(zip(p.elements, below))
    assert p.chain_room == tuple(zip(below, above)) == tuple(zip(below, dual(p).ranks))
    assert p.height == height(p) == 1 + max(b + a for b, a in p.chain_room)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((p.index[a], p.index[b]) for a, b in p.covers)
    assert (classify_tree(p) != "not_tree") == nx.is_tree(graph)
    for first in range(n):
        order = p.hasse_orders[first]
        assert order[0] == first and sorted(order) == list(range(n))
        for k, i in enumerate(order):
            # each element follows a neighbour, or starts a new component
            placed = set(order[:k])
            assert not placed.isdisjoint(p.neighbours[i]) or placed.isdisjoint(
                nx.node_connected_component(graph, i))


def eager_hasse_orders(p):
    """Every start element's Hasse DFS order, computed in one pass."""
    n = len(p.elements)
    orders = []
    for first in range(n):
        order, seen = [], set()
        for root in (first, *range(n)):
            stack = [] if root in seen else [root]
            seen.add(root)
            while stack:
                i = stack.pop()
                order.append(i)
                fresh = [j for j in reversed(p.neighbours[i]) if j not in seen]
                seen.update(fresh)
                stack += fresh
        orders.append(tuple(order))
    return orders


@given(posets(), st.randoms(use_true_random=False))
def test_lazy_hasse_orders_match_eager_computation(p, rnd):
    """Each start's order is built on first use, in any order of asking,
    and equals the order an all-at-once computation gives."""
    eager = eager_hasse_orders(p)
    starts = list(range(len(p.elements)))
    rnd.shuffle(starts)
    for k, first in enumerate(starts):
        assert p.hasse_orders[first] == eager[first]
        assert p.hasse_orders[first] is p.hasse_orders[first]
        assert sorted(p.hasse_orders) == sorted(starts[:k + 1])


@given(posets())
def test_rank_coloring_classes_are_antichains(p):
    coloring = rank_coloring(p)
    for a in p.elements:
        for b in p.elements:
            if a != b and coloring[a] == coloring[b]:
                assert not p.le(a, b)


def test_is_isomorphic():
    relabeled = poset_from_covers("pqr", [("p", "q"), ("p", "r")])
    assert is_isomorphic(relabeled, y_poset(1, 2))
    assert not is_isomorphic(y_poset(1, 2), y_prime_poset(1, 2))
    assert is_isomorphic(dual(dual(t_r3_poset(2))), t_r3_poset(2))


def test_height2_tree_catalogue_counts():
    # unlabeled trees on t vertices, each contributing its two orientations
    # minus self-dual coincidences
    assert len(all_height2_tree_posets(2)) == 1
    assert len(all_height2_tree_posets(3)) == 2
    assert len(all_height2_tree_posets(4)) == 3
    assert len(all_height2_tree_posets(5)) == 6


def test_height2_tree_catalogue_against_networkx():
    for t in (3, 4, 5):
        cat = all_height2_tree_posets(t)
        n_trees = sum(1 for _ in nx.nonisomorphic_trees(t))
        assert n_trees <= len(cat) <= 2 * n_trees
        for p in cat:
            assert classify_tree(p) != "not_tree"
            assert height(p) == 2
            assert len(p.elements) == t
        for i, p in enumerate(cat):
            for q in cat[i + 1:]:
                assert not is_isomorphic(p, q)


def test_json_round_trip():
    p = y_poset(2, 3)
    text = poset_to_json(p)
    assert poset_from_json(text) == p
    obj = json.loads(text)
    assert obj["covers"] == sorted(obj["covers"])


def test_json_malformed():
    with pytest.raises(InvalidParam):
        poset_from_json("{\"elements\": [1, 2]}")
