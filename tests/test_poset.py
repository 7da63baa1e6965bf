import json
import random
import time
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from posetlab.embed import find_copy
from posetlab.errors import CycleError, DuplicateLabel, InvalidColoring, InvalidParam, NotGraded
from posetlab.family import SetFamily
from posetlab.poset import (
    Poset,
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
from strategies import dag_covers, posets, relation_pairs


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


@pytest.mark.parametrize("elements, pairs, error", [
    (("a", "b"), (("a", "b"), ("b", "a")), CycleError),
    (("a",), (("a", "a"),), CycleError),
    (("a", "a"), (), DuplicateLabel),
    (("a",), (("a", "zzz"),), InvalidParam),
    ((), (), InvalidParam),
    (tuple(f"e{i}" for i in range(65)), (), InvalidParam),
])
def test_direct_construction_raises_typed_errors(elements, pairs, error):
    with pytest.raises(error):
        Poset(elements, pairs)
    with pytest.raises(error):
        poset_from_covers(elements, pairs)


def test_direct_construction_reduces_a_redundant_pair():
    p = Poset(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
    assert p.covers == (("a", "b"), ("b", "c"))
    assert p.graded and classify_tree(p) == "monotone_increasing"
    assert is_isomorphic(p, chain(3))
    fam = SetFamily.from_sets(3, [[1], [1, 2], [1, 2, 3]])
    assert find_copy(fam, p, "rank_preserving").mapping == {"a": 1, "b": 3, "c": 7}


def test_direct_construction_takes_any_iterables():
    """Labels and pairs from a list, a str or a generator are stored as
    tuples: the poset equals the tuple-built one and is hashable."""
    want = poset_from_covers(("a", "b"), (("a", "b"),))
    for elements, pairs in ((["a", "b"], [["a", "b"]]), ("ab", [("a", "b")]),
                            ((x for x in "ab"), (pair for pair in [("a", "b")]))):
        p = Poset(elements, pairs)
        assert p == want and hash(p) == hash(want)
        assert p.elements == ("a", "b") and p.covers == (("a", "b"),)


@given(dag_covers())
def test_direct_construction_from_every_pair_of_the_order(data):
    labels, pairs = data
    reduced = poset_from_covers(labels, pairs)
    order = tuple((a, b) for a in labels for b in labels if a != b and reduced.le(a, b))
    full = Poset(tuple(labels), order)
    assert full == reduced
    assert (full.graded, full.ranks, classify_tree(full)) == (
        reduced.graded, reduced.ranks, classify_tree(reduced))


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


def _digraph(labels, pairs):
    g = nx.DiGraph()
    g.add_nodes_from(labels)
    g.add_edges_from(pairs)
    return g


@given(dag_covers())
def test_reduction_matches_networkx(data):
    labels, pairs = data
    want = nx.transitive_reduction(_digraph(labels, pairs)).edges
    assert sorted(poset_from_covers(labels, pairs).covers) == sorted(want)


@given(relation_pairs())
def test_cycle_error_exactly_when_networkx_finds_a_cycle(data):
    labels, pairs = data
    acyclic = nx.is_directed_acyclic_graph(_digraph(labels, pairs))
    try:
        p = poset_from_covers(labels, pairs)
    except CycleError:
        assert not acyclic
    else:
        assert acyclic
        closure = nx.transitive_closure(_digraph(labels, pairs), reflexive=True)
        assert all(p.le(a, b) == closure.has_edge(a, b) for a in labels for b in labels)


def test_dual_of_y12_has_unique_maximal():
    lam = dual(y_poset(1, 2))
    maximal = [x for x in lam.elements if all(a != x for a, _ in lam.covers)]
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
    deg = {x: sum(x in c for c in t.covers) for x in t.elements}
    leaves = [x for x in t.elements if all(a != x for a, _ in t.covers)]
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
        kids = [b for a, b in t.covers if a == x]
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
    assert above == list(dual(p).ranks)
    assert p.height == height(p) == 1 + max(b + a for b, a in zip(below, above))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((p.index[a], p.index[b]) for a, b in p.covers)
    assert p.neighbours == tuple(tuple(sorted(graph.adj[i])) for i in range(n))
    verdict = classify_tree(p)
    assert (verdict != "not_tree") == nx.is_tree(graph)
    if verdict != "not_tree":
        minimal = [x for x in p.elements if all(b != x for _, b in p.covers)]
        maximal = [x for x in p.elements if all(a != x for a, _ in p.covers)]
        assert (verdict == "monotone_increasing") == (len(minimal) == 1)
        assert (verdict == "monotone_decreasing") == (len(minimal) > 1 and len(maximal) == 1)
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


@given(posets())
def test_lazy_hasse_orders_match_eager_computation(p):
    """Every start's order equals the one a separate DFS pass gives."""
    assert p.hasse_orders == tuple(eager_hasse_orders(p))


@given(posets())
def test_rank_coloring_classes_are_antichains(p):
    coloring = rank_coloring(p)
    for a in p.elements:
        for b in p.elements:
            if a != b and coloring[a] == coloring[b]:
                assert not p.le(a, b)


@given(posets(), st.data())
def test_class_table_rejects_a_label_shared_by_comparable_elements(p, data):
    """class_table names the first pair i < j of comparable elements that
    share a label; the rank classes are antichains, so they never clash."""
    n = len(p.elements)
    raw = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    clash = next(((a, b) for a, b in combinations(p.elements, 2)
                  if raw[p.index[a]] == raw[p.index[b]] and (p.le(a, b) or p.le(b, a))), None)
    if clash is None:
        p.class_table(raw)
    else:
        with pytest.raises(InvalidColoring) as exc:
            p.class_table(raw)
        assert str(exc.value) == f"comparable elements {clash[0]!r}, {clash[1]!r} share a color"
    assert p.class_table(p.ranks)[0] == tuple(sorted(set(p.ranks)).index(r) for r in p.ranks)
    if p.graded:
        assert p.rank_classes == p.class_table(p.ranks)
    else:
        with pytest.raises(NotGraded):
            p.rank_classes


def test_is_isomorphic():
    relabeled = poset_from_covers("pqr", [("p", "q"), ("p", "r")])
    assert is_isomorphic(relabeled, y_poset(1, 2))
    assert not is_isomorphic(y_poset(1, 2), y_prime_poset(1, 2))
    assert is_isomorphic(dual(dual(t_r3_poset(2))), t_r3_poset(2))
    with pytest.raises(InvalidParam):
        is_isomorphic(Poset((), ()), Poset((), ()))


def test_is_isomorphic_above_the_family_cap():
    """Up to 64 elements: the down-sets of q are masks over 64 bits, beyond
    the 24-point ground set a SetFamily allows.  The relabelled chain's
    element 0 sits mid-chain, where an unpinned search backtracks
    exponentially."""
    labels = [f"x{i}" for i in range(1, 65)]
    shuffled = random.Random(3).sample(labels, 64)
    relabelled = poset_from_covers(labels, list(zip(shuffled, shuffled[1:])))
    assert is_isomorphic(chain(64), relabelled)
    assert is_isomorphic(relabelled, chain(64))
    levels = complete_multilevel([32, 32])
    assert is_isomorphic(levels, dual(levels))
    assert not is_isomorphic(y_poset(1, 63), y_prime_poset(1, 63))


def _components(kinds):
    """Disjoint six-element posets: "vw" a V beside a wedge, "n2" an N
    beside a 2-chain (one cover of the first moved)."""
    labels, covers = [], []
    for c, kind in enumerate(kinds):
        e = [f"c{c}e{i}" for i in range(6)]
        labels += e
        moved = (e[2], e[3]) if kind == "n2" else (e[2], e[5])
        covers += [(e[0], e[1]), (e[0], e[3]), moved, (e[4], e[5])]
    return poset_from_covers(labels, covers)


def test_is_isomorphic_refutes_a_pair_the_signature_passes():
    # an N beside a 2-chain against a V beside a wedge: the same cover count
    # and the same sorted (down-set size, up-set size) per element; their
    # Hasse neighbours' signatures tell them apart (one cover of p moved, as
    # in the networkx test below)
    p, q = _components(["n2"]), _components(["vw"])
    signature = [sorted((d.bit_count(), u.bit_count()) for d, u in zip(r.down, r.up))
                 for r in (p, q)]
    assert signature[0] == signature[1]
    assert p.refined_signature != q.refined_signature
    assert not is_isomorphic(p, q)
    assert not is_isomorphic(q, p)


@pytest.mark.parametrize("copies", [4, 5])
def test_is_isomorphic_refutes_one_odd_component_at_once(copies):
    """The odd component last in the walk: the matcher alone re-placed every
    component before it (3.2 s at 24 elements, over 20 s at 30)."""
    p = _components(["vw"] * (copies - 1) + ["n2"])
    q = _components(["vw"] * copies)
    start = time.process_time()
    assert not is_isomorphic(p, q)
    assert not is_isomorphic(q, p)
    assert time.process_time() - start < 1


def test_is_isomorphic_refutes_a_pair_the_refinement_passes():
    """An 8-crown (a1 < b1 > a2 < b2 ... > a1) against two 4-crowns: every
    bottom lies below two tops and every top above two bottoms, so each
    round of refinement colours them alike and only the matcher refutes."""
    def crowns(*sizes):
        covers = []
        for c, m in enumerate(sizes):
            for i in range(m):
                covers += [(f"a{c}_{i}", f"b{c}_{i}"), (f"a{c}_{i}", f"b{c}_{(i + 1) % m}")]
        return poset_from_covers(sorted({x for pair in covers for x in pair}), covers)

    p, q = crowns(4), crowns(2, 2)
    assert len(p.covers) == len(q.covers) == 8
    assert p.refined_signature == q.refined_signature
    assert not is_isomorphic(p, q)
    assert not is_isomorphic(q, p)
    assert is_isomorphic(p, crowns(4))


def _hasse_digraph(p):
    g = nx.DiGraph()
    g.add_nodes_from(p.elements)
    g.add_edges_from(p.covers)
    return g


@given(dag_covers(max_elements=7), st.randoms(use_true_random=False))
def test_is_isomorphic_matches_networkx(drawn, rnd):
    """Against networkx on the Hasse digraphs: a random poset, a relabelled
    copy (so the images must be searched for) and a copy with one cover
    moved to another forward pair."""
    labels, pairs = drawn
    p = poset_from_covers(labels, pairs)
    rename = dict(zip(labels, rnd.sample(labels, len(labels))))
    relabelled = poset_from_covers(labels, [(rename[a], rename[b]) for a, b in p.covers])
    others = [relabelled]
    forward = [(a, b) for a, b in combinations(labels, 2) if (a, b) not in p.covers]
    if p.covers and forward:
        moved = list(p.covers)
        moved[rnd.randrange(len(moved))] = rnd.choice(forward)
        others.append(poset_from_covers(labels, moved))
    for q in others:
        expected = nx.is_isomorphic(_hasse_digraph(p), _hasse_digraph(q))
        assert is_isomorphic(p, q) == is_isomorphic(q, p) == expected


def test_is_isomorphic_backtracks_past_a_failed_image():
    # p is e0 < e2 beside e1, q is e2 < e1 beside e0.  The matcher first
    # gives p's e0 the down-set {e0} of q, the lone point, and then finds no
    # 2-element down-set above it for p's e2; it succeeds only once {e0} is
    # freed again, for p's e1.  The other way round, q's lone e0 first takes
    # p's {e0}, the one point below a 2-element down-set, and backtracks too.
    p = poset_from_covers(["e0", "e1", "e2"], [("e0", "e2")])
    q = poset_from_covers(["e0", "e1", "e2"], [("e2", "e1")])
    assert is_isomorphic(p, q)
    assert is_isomorphic(q, p)


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
    """Every generator stores its covers sorted, so each equals its round
    trip (chain(k) from k = 10 on sorts "x10" before "x2")."""
    for p in (y_poset(2, 3), chain(12), antichain(3), y_prime_poset(2, 3), t_r3_poset(3),
              t_r3_poset(3, "children"), complete_multilevel([2, 3, 2])):
        text = poset_to_json(p)
        assert poset_from_json(text) == p
        assert p.covers == tuple(sorted(p.covers))
        obj = json.loads(text)
        assert obj["covers"] == sorted(obj["covers"])


def test_json_malformed():
    with pytest.raises(InvalidParam):
        poset_from_json("{\"elements\": [1, 2]}")
