from collections import Counter
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetlab import embed, lattice
from posetlab.embed import (
    MODES,
    InclusionBigraph,
    _class_setup,
    _copy_through,
    _find_embedding,
    _Pool,
    build_inclusion_bigraph,
    check_embedding,
    creates_copy_through,
    find_colored_copy,
    find_copy,
    find_copy_bruteforce,
    greedy_tree_embed,
    is_copy_image,
    min_degree_subgraph,
    validate_coloring,
)
from posetlab.errors import (
    AlreadyMember,
    CycleError,
    ElementOutOfRange,
    EmbedFailed,
    InvalidColoring,
    InvalidParam,
    NotGraded,
    PosetlabError,
)
from posetlab.family import (
    SetFamily,
    canonical_key,
    canonical_masks,
    f23_construction,
    full_layer,
    middle_layers,
)
from posetlab.poset import (
    all_height2_tree_posets,
    chain,
    complete_multilevel,
    height,
    poset_from_covers,
    rank_coloring,
    t_r3_poset,
    y_poset,
    y_prime_poset,
)
from posetlab.search import SaturationResult, la_exact, saturation_check, verify_free
from strategies import dag_covers, families, random_family, random_graded_poset

C2 = chain(2)
Y12 = y_poset(1, 2)
Y22 = y_poset(2, 2)


def test_weak_copy_of_chain():
    fam = SetFamily(1, (0, 1))
    emb = find_copy(fam, C2, "weak")
    assert emb.mapping == {"x1": 0, "x2": 1}


def test_y12_weak_found_rank_preserving_not():
    fam = SetFamily.from_sets(3, [[1], [1, 2], [1, 2, 3]])
    assert find_copy(fam, Y12, "weak") is not None
    assert find_copy(fam, Y12, "rank_preserving") is None


def test_y22_rank_preserving_witness():
    fam = SetFamily.from_sets(4, [[1], [1, 2], [1, 2, 3], [1, 2, 4]])
    emb = find_copy(fam, Y22, "rank_preserving")
    assert emb is not None
    assert check_embedding(Y22, emb.mapping, "rank_preserving", family=fam)


def test_rank_preserving_needs_graded():
    p = poset_from_covers("abcd", [("a", "b"), ("b", "d"), ("c", "d")])
    with pytest.raises(NotGraded):
        find_copy(SetFamily(4, (1, 3, 7, 15)), p, "rank_preserving")


def test_unknown_mode():
    with pytest.raises(InvalidParam):
        find_copy(SetFamily(2, ()), C2, "strong")


def test_colored_copy_rank_coloring_matches_rank_preserving():
    fam = SetFamily.from_sets(4, [[1], [1, 2], [1, 2, 3], [1, 2, 4]])
    rp = find_copy(fam, Y22, "rank_preserving")
    colored = find_colored_copy(fam, Y22, rank_coloring(Y22))
    assert colored.mapping == rp.mapping
    assert colored.mode == "colored"


def test_colored_copy_distinct_top_colors_degenerates_to_weak():
    fam = SetFamily.from_sets(3, [[1], [1, 2], [1, 2, 3]])
    coloring = {"x1": 0, "y1": 1, "y2": 2}
    assert find_colored_copy(fam, Y12, coloring) is not None


def test_invalid_coloring_comparable_pair():
    coloring = {"x1": 0, "x2": 0, "y1": 1, "y2": 1}
    with pytest.raises(InvalidColoring):
        find_colored_copy(middle_layers(4, 2), Y22, coloring)
    with pytest.raises(InvalidColoring):
        validate_coloring(Y22, {"x1": 0})
    with pytest.raises(InvalidColoring):
        find_copy(middle_layers(4, 2), Y22, "colored")


def test_induced_vs_weak():
    # a 3-chain contains weak Y'(1,2) images but no induced copy needs
    # incomparable tops; the N poset separates the modes
    n_poset = poset_from_covers("abcd", [("a", "b"), ("c", "b"), ("c", "d")])
    fam_chain = SetFamily.from_sets(4, [[1], [1, 2], [1, 2, 3], [1, 2, 3, 4]])
    assert find_copy(fam_chain, n_poset, "weak") is not None
    assert find_copy(fam_chain, n_poset, "induced") is None
    fam_real = SetFamily.from_sets(4, [[1], [2], [1, 2], [1, 3]])
    emb = find_copy(fam_real, n_poset, "induced")
    assert emb is not None
    assert check_embedding(n_poset, emb.mapping, "induced", family=fam_real)


def test_creates_copy_through_examples():
    emb = creates_copy_through(middle_layers(4, 2), Y22, "rank_preserving", 0b0001)
    assert emb is not None
    assert 0b0001 in emb.mapping.values()
    assert creates_copy_through(SetFamily(2, (1,)), C2, "weak", 2) is None
    with pytest.raises(AlreadyMember):
        creates_copy_through(SetFamily(2, (1,)), C2, "weak", 1)


@pytest.mark.parametrize("mask, error", [(1 << 3, ElementOutOfRange), (-1, ElementOutOfRange),
                                         (0b011, AlreadyMember)])
def test_creates_copy_through_rejects_bad_masks(mask, error):
    with pytest.raises(error):
        creates_copy_through(SetFamily(3, (0b001, 0b011)), C2, "weak", mask)


def test_copy_through_restores_lists_on_error(monkeypatch):
    with pytest.raises(InvalidColoring):  # raised before any list is touched
        creates_copy_through(SetFamily(2, (0b01,)), C2, "colored", 0b11, {"x1": 0})

    def interrupted(*args):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(embed, "_find_embedding", interrupted)
    pool = _Pool(2, [0b01], {1: [0b01]}, {0b01})
    with pytest.raises(RuntimeError):
        _copy_through(pool, C2, "weak", 0b11, None)
    assert pool.members == [0b01]
    assert pool.by_size == {1: [0b01], 2: []}
    assert pool.member_set == {0b01}


def test_creates_copy_through_matches_filtered_find_copy(rng):
    for _ in range(150):
        fam = random_family(rng, 4, 8)
        poset = random_graded_poset(rng, 4)
        mode = rng.choice(("weak", "induced", "rank_preserving", "colored"))
        coloring = None
        if mode == "colored":
            # rank classes, some elements split off into classes of their own
            coloring = {
                x: r if rng.random() < 0.5 else 100 + i
                for i, (x, r) in enumerate(rank_coloring(poset).items())
            }
        outside = [m for m in range(16) if m not in fam]
        if not outside:
            continue
        s = rng.choice(outside)
        through = creates_copy_through(fam, poset, mode, s, coloring)
        aug = SetFamily(fam.n, fam.members + (s,))
        brute = None
        for combo in combinations(aug.members, len(poset.elements)):
            if s not in combo:
                continue
            if is_copy_image(combo, poset, mode, coloring):
                brute = combo
                break
        assert (through is None) == (brute is None)
        if through is not None:
            assert s in through.mapping.values()
            assert check_embedding(poset, through.mapping, mode, coloring, family=aug)


@settings(max_examples=40)
@given(families(max_n=5, max_size=14))
def test_mode_hierarchy_weak_free_implies_rank_preserving_free(fam):
    for poset in (Y12, Y22, C2):
        if find_copy(fam, poset, "weak") is None:
            assert find_copy(fam, poset, "rank_preserving") is None


def test_rank_preserving_witness_satisfies_weak_conditions(rng):
    for _ in range(80):
        fam = random_family(rng, 4, 10)
        emb = find_copy(fam, Y22, "rank_preserving")
        if emb is not None:
            assert check_embedding(Y22, emb.mapping, "weak", family=fam)


def test_complete_multilevel_rank_preserving_witness_is_induced(rng):
    butterfly = complete_multilevel([2, 2])
    diamond = complete_multilevel([1, 2, 1])
    for _ in range(120):
        fam = random_family(rng, 5, 14)
        for poset in (butterfly, diamond):
            emb = find_copy(fam, poset, "rank_preserving")
            if emb is not None:
                assert check_embedding(poset, emb.mapping, "induced", family=fam)


def test_monotonicity_adding_sets_preserves_copies(rng):
    for _ in range(80):
        fam = random_family(rng, 4, 9)
        poset = random_graded_poset(rng, 4)
        if find_copy(fam, poset, "weak") is None:
            continue
        outside = [m for m in range(16) if m not in fam]
        if not outside:
            continue
        bigger = SetFamily(fam.n, fam.members + (rng.choice(outside),))
        assert find_copy(bigger, poset, "weak") is not None


def test_find_copy_agrees_with_bruteforce(rng):
    for _ in range(400):
        fam = random_family(rng, 4, 8)
        poset = random_graded_poset(rng, 4)
        mode = rng.choice(("weak", "induced", "rank_preserving", "colored"))
        coloring = rank_coloring(poset) if mode == "colored" else None
        fast = find_copy(fam, poset, mode, coloring)
        slow = find_copy_bruteforce(fam, poset, mode, coloring)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert check_embedding(poset, fast.mapping, mode, coloring, fam)
            assert check_embedding(poset, slow.mapping, mode, coloring, fam)


def test_check_embedding_rejects_bad_witnesses():
    fam = SetFamily.from_sets(3, [[1], [1, 2], [1, 2, 3]])
    assert not check_embedding(C2, {"x1": 3, "x2": 1}, "weak", family=fam)
    assert not check_embedding(C2, {"x1": 1, "x2": 1}, "weak", family=fam)
    assert not check_embedding(C2, {"x1": 1}, "weak", family=fam)
    assert not check_embedding(C2, {"x1": 1, "x2": 16}, "weak", family=fam)


# ---------------------------------------------------------------------------
# The reference matcher against the copy conditions read pair by pair.

def _literal_copy(poset, masks, mode):
    """masks (indexed like poset.elements) meet the mode's definition, read
    pair by pair; the classes of both sized modes are the ranks."""
    sized = mode in ("rank_preserving", "colored")
    for i, j in permutations(range(len(masks)), 2):
        below = poset.up[i] >> j & 1
        inside = masks[i] & ~masks[j] == 0
        if below and not inside or mode == "induced" and inside and not below:
            return False
        if sized and poset.ranks[i] == poset.ranks[j] and (
                masks[i].bit_count() != masks[j].bit_count()):
            return False
    return True


def _assert_oracle_is_literal(fam, poset, mode, head, literal):
    """find_copy_bruteforce returns the first witness of the definition
    (literal(masks) is its verdict), in combination-then-permutation order;
    is_copy_image and check_embedding give its verdicts on the k-set head."""
    if mode == "rank_preserving" and not poset.graded:
        with pytest.raises(NotGraded):
            find_copy_bruteforce(fam, poset, mode)
        return
    coloring = rank_coloring(poset) if mode == "colored" else None
    k = len(poset.elements)
    want = next((dict(zip(poset.elements, masks))
                 for combo in combinations(fam.members, k) for masks in permutations(combo)
                 if literal(masks)), None)
    got = find_copy_bruteforce(fam, poset, mode, coloring)
    assert (got and got.mapping) == want
    if len(head) != k:
        return
    verdicts = [literal(masks) for masks in permutations(head)]
    assert is_copy_image(head, poset, mode, coloring) == any(verdicts)
    for masks, verdict in zip(permutations(head), verdicts):
        mapping = dict(zip(poset.elements, masks))
        assert check_embedding(poset, mapping, mode, coloring, fam) == verdict


def test_is_copy_image_needs_one_distinct_mask_per_element():
    assert is_copy_image((0b001, 0b011, 0b101), Y12)
    assert not is_copy_image((0b001, 0b011), Y12)
    assert not is_copy_image((0b001, 0b011, 0b101, 0b111), Y12)
    assert not is_copy_image((0b001, 0b011, 0b011), Y12)


def _labeled_posets(k):
    """Every poset on e0..e(k-1), one per order relation."""
    found = {}
    labels = [f"e{i}" for i in range(k)]
    pairs = list(permutations(labels, 2))
    for bits in range(1 << len(pairs)):
        try:
            p = poset_from_covers(labels, [q for b, q in enumerate(pairs) if bits >> b & 1])
        except CycleError:
            continue
        found.setdefault(p.up, p)
    return list(found.values())


def test_oracle_is_the_literal_definition_on_every_small_case():
    posets = [p for k in (1, 2, 3) for p in _labeled_posets(k)]
    assert len(posets) == 1 + 3 + 19
    fams = [SetFamily(3, tuple(m for m in range(8) if bits >> m & 1)) for bits in range(256)]
    for poset in posets:
        for mode in MODES:
            # the verdict on every ordered k-tuple of distinct subsets of [3]
            literal = {masks: _literal_copy(poset, masks, mode)
                       for masks in permutations(range(8), len(poset))}
            for fam in fams:
                _assert_oracle_is_literal(fam, poset, mode, fam.members, literal.__getitem__)


@given(dag_covers(max_elements=5), st.integers(3, 4), st.data())
def test_oracle_is_the_literal_definition_on_random_draws(covers, n, data):
    labels, pairs = covers
    k = len(labels)
    # the element order, hence the permutation order, varies too
    poset = poset_from_covers(data.draw(st.permutations(labels)), pairs)
    members = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=7,
                                 unique=True))
    fam = SetFamily(n, tuple(members))
    for mode in MODES:
        _assert_oracle_is_literal(fam, poset, mode, tuple(members[:k]),
                                  lambda masks: _literal_copy(poset, masks, mode))


# ---------------------------------------------------------------------------
# The height exit: no copy of a poset taller than the number of set sizes.

ROOM_POSETS = (
    chain(1), chain(2), chain(3), chain(4),
    Y12, y_prime_poset(1, 2), Y22, y_prime_poset(2, 2), t_r3_poset(2),
)


def test_find_copy_matches_bruteforce_on_few_size_classes(rng):
    """Families with 1 to 3 size classes, so the height exit fires."""
    seen = Counter()
    for trial in range(800):
        n = rng.randint(3, 5)
        mode = MODES[trial % 4]
        sizes = rng.sample(range(n + 1), rng.randint(1, 3))
        pool = [m for m in range(1 << n) if m.bit_count() in sizes]
        k = rng.randint(min(len(pool), 4), min(len(pool), 10))
        fam = SetFamily(n, tuple(rng.sample(pool, k)))
        poset = rng.choice([p for p in ROOM_POSETS if len(p.elements) <= k])
        coloring = None
        if mode == "colored":
            coloring = {
                x: r if rng.random() < 0.5 else 100 + i
                for i, (x, r) in enumerate(rank_coloring(poset).items())
            }
        fast = find_copy(fam, poset, mode, coloring)
        slow = find_copy_bruteforce(fam, poset, mode, coloring)
        assert (fast is None) == (slow is None), (fam, poset, mode)
        if fast is not None:
            assert check_embedding(poset, fast.mapping, mode, coloring, fam)
        seen[height(poset) > len(fam.by_size), fast is not None] += 1
    # cut by the height exit; found and not found past it
    assert seen[True, True] == 0
    assert min(seen[True, False], seen[False, True], seen[False, False]) >= 50


def test_interval_route_matches_bruteforce_and_the_scan(rng, monkeypatch):
    """The interval route forced on for small families (no minimum length;
    every third trial also at no cost, so every placed neighbour routes):
    find_copy, creates_copy_through and saturation_check give the verdicts
    of the permutation matcher and the witnesses of the scan."""
    walks = Counter()
    route = embed._interval_members

    def counted(cand, *args):
        listed = route(cand, *args)
        walks[mode] += listed is not cand
        return listed

    monkeypatch.setattr(embed, "_interval_members", counted)

    def route_and_scan(call):
        monkeypatch.setattr(embed, "_INTERVAL_MIN", 0)
        monkeypatch.setattr(embed, "_INTERVAL_COST", 0 if trial % 3 == 0 else 4)
        routed = call()
        monkeypatch.setattr(embed, "_INTERVAL_MIN", 1 << 20)
        assert call() == routed
        return routed

    def holds_copy(fam, poset):
        return find_copy_bruteforce(fam, poset, mode, coloring) is not None

    for trial in range(1000):
        n = rng.randint(3, 4)
        mode = MODES[trial % 4]
        sizes = rng.sample(range(n + 1), rng.randint(1, n + 1))
        pool = [m for m in range(1 << n) if m.bit_count() in sizes]
        fam = SetFamily(n, tuple(rng.sample(pool, rng.randint(min(len(pool), 3), min(len(pool), 8)))))
        poset = rng.choice([p for p in ROOM_POSETS if len(p.elements) <= 4])
        coloring = None
        if mode == "colored":
            coloring = {
                x: r if rng.random() < 0.5 else 100 + i
                for i, (x, r) in enumerate(rank_coloring(poset).items())
            }
        found = route_and_scan(lambda: find_copy(fam, poset, mode, coloring))
        assert (found is None) == (not holds_copy(fam, poset)), (fam, poset, mode)
        outside = [m for m in range(1 << n) if m not in fam]
        if not outside:
            continue
        s = rng.choice(outside)
        grown = SetFamily(n, fam.members + (s,))
        through = route_and_scan(lambda: creates_copy_through(fam, poset, mode, s, coloring))
        if through is not None:
            assert s in through.mapping.values()
            assert check_embedding(poset, through.mapping, mode, coloring, grown)
        elif found is None:
            assert not holds_copy(grown, poset)
        if found is None and len(fam) <= 5:
            res = route_and_scan(lambda: saturation_check(fam, [poset], mode, coloring))
            want = next((m for m in sorted(outside, key=canonical_key)
                         if not holds_copy(SetFamily(n, fam.members + (m,)), poset)), None)
            assert (res.saturated, res.counterexample) == (want is None, want)
    assert min(walks[m] for m in MODES) >= 100, walks


# The checks of the benchmark's detect workload, at full size, where the
# interval route is taken by default.  Recorded before the route existed.
Y22_PAIR = (Y22, y_prime_poset(2, 2))
THROUGH_PINNED = [
    (11, "rank_preserving", 0b10010010001,
     ({"x1": 1169, "x2": 1171, "y1": 1175, "y2": 1179}, None)),
    (11, "rank_preserving", 0b11101110111,
     (None, {"x1": 1911, "x2": 119, "y1": 55, "y2": 87})),
    (8, "weak", 0b10010001, ({"x1": 145, "x2": 147, "y1": 151, "y2": 155}, None)),
    (8, "weak", 0b11011011, (None, {"x1": 219, "x2": 91, "y1": 27, "y2": 75})),
    (8, "induced", 0b10010001, ({"x1": 145, "x2": 147, "y1": 151, "y2": 155}, None)),
    (8, "induced", 0b11011011, (None, {"x1": 219, "x2": 91, "y1": 27, "y2": 75})),
]
F23_THROUGH_PINNED = [
    (y_poset(1, 2), 240, {"x1": 240, "y1": 243, "y2": 245}),
    (y_poset(1, 2), 3855, {"x1": 1295, "y1": 3855, "y2": 3343}),
    (y_prime_poset(1, 3), 240, {"x1": 3313, "y1": 240, "y2": 1265, "y3": 2289}),
    (y_prime_poset(1, 3), 3855, {"x1": 3855, "y1": 783, "y2": 1295, "y3": 1551}),
]


def test_detect_checks_at_full_size_are_pinned(monkeypatch):
    walks = Counter()
    route = embed._interval_members

    def counted(cand, *args):
        listed = route(cand, *args)
        walks["all"] += listed is not cand
        return listed

    monkeypatch.setattr(embed, "_interval_members", counted)
    m8, m11, m12, f23 = (middle_layers(8, 2), middle_layers(11, 2), middle_layers(12, 2),
                         f23_construction(12))
    assert saturation_check(m11, Y22_PAIR, "rank_preserving") == SaturationResult(True, None)
    assert saturation_check(m8, Y22_PAIR, "weak") == SaturationResult(True, None)
    assert verify_free(m12, [t_r3_poset(3)], "weak") == (True, None)
    assert verify_free(m12, [Y22], "induced") == (True, None)
    assert verify_free(f23, [Y12, y_prime_poset(1, 3)], "weak") == (True, None)
    short = SetFamily(8, tuple(m for m in m8.members if m != 0b00111100))
    assert saturation_check(short, Y22_PAIR, "weak") == SaturationResult(False, 0b00111100)
    for n, mode, s, pinned in THROUGH_PINNED:
        fam = m11 if n == 11 else m8
        got = tuple(None if e is None else e.mapping
                    for e in (creates_copy_through(fam, p, mode, s) for p in Y22_PAIR))
        assert got == pinned, (n, mode, s)
    for poset, s, pinned in F23_THROUGH_PINNED:
        assert creates_copy_through(f23, poset, "weak", s).mapping == pinned
    assert find_copy(f23, chain(3), "weak") is None
    assert find_copy(f23, Y12, "induced") is None
    assert find_copy(f23, y_prime_poset(1, 2), "weak").mapping == {
        "x1": 3103, "y1": 1055, "y2": 2079}
    assert walks["all"] > 0


@pytest.mark.parametrize("fam, forbidden, mode, mapped", [
    (middle_layers(4, 1), (C2,), "weak", True),
    (middle_layers(5, 2), Y22_PAIR, "induced", False),
])
def test_saturation_check_takes_an_iterator_of_posets(fam, forbidden, mode, mapped):
    """On lattice's maps and on the matcher's probes alike."""
    assert (lattice.route(fam, forbidden, mode, None) is not None) == mapped
    assert saturation_check(fam, iter(forbidden), mode) == SaturationResult(True, None)


THREE_CLASSES = SetFamily(5, tuple(full_layer(5, 1) + full_layer(5, 3) + full_layer(5, 4)))


@pytest.mark.parametrize("fam, poset, mode, pinned", [
    (middle_layers(5, 3), Y22, "weak", {"x1": 3, "x2": 7, "y1": 15, "y2": 23}),
    (middle_layers(5, 3), chain(3), "induced", {"x1": 3, "x2": 7, "x3": 15}),
    (middle_layers(6, 2), y_prime_poset(1, 2), "induced", {"x1": 15, "y1": 7, "y2": 11}),
    (f23_construction(6), y_prime_poset(1, 3), "weak", None),
    (THREE_CLASSES, t_r3_poset(2), "weak", {"r0": 1, "m1": 7, "m2": 11, "t1": 15, "t2": 27}),
    (THREE_CLASSES, y_poset(2, 1), "rank_preserving", {"x1": 1, "x2": 7, "y1": 15}),
    (middle_layers(6, 3), t_r3_poset(2), "colored",
     {"r0": 3, "m1": 7, "m2": 11, "t1": 15, "t2": 27}),
    (middle_layers(6, 2), t_r3_poset(2), "weak", None),
])
def test_find_copy_witness_is_pinned(fam, poset, mode, pinned):
    """Witnesses recorded before the chain-room rule: it only drops
    candidates that lie in no copy, so the first embedding stays put."""
    coloring = rank_coloring(poset) if mode == "colored" else None
    emb = find_copy(fam, poset, mode, coloring)
    assert (None if emb is None else emb.mapping) == pinned


def test_height_exit_still_raises_mode_errors():
    fam = middle_layers(6, 2)  # two size classes, so height 3 exits at once
    skewed = poset_from_covers("abcd", [("a", "b"), ("b", "c"), ("d", "c")])
    with pytest.raises(NotGraded):
        find_copy(fam, skewed, "rank_preserving")
    with pytest.raises(InvalidColoring):
        find_copy(fam, t_r3_poset(2), "colored")
    with pytest.raises(InvalidColoring):
        find_copy(fam, chain(3), "colored", {"x1": 0, "x2": 0, "x3": 1})
    assert find_copy(fam, chain(3), "colored", rank_coloring(chain(3))) is None
    assert find_copy(fam, skewed, "weak") is None


# ---------------------------------------------------------------------------
# The cached tables: a Poset or _Pool that has served other families,
# colourings or profiles answers as a fresh, equal one.

def _outcome(fn, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except PosetlabError as exc:
        return type(exc), str(exc)


def _fresh(p):
    """An equal poset with nothing cached."""
    return poset_from_covers(p.elements, p.covers)


def _saturation_check_of(fam, p, mode, coloring):
    return saturation_check(fam, [p], mode, coloring)


def _warm_and_cold(p, calls):
    """The outcomes of calls (fn, args), each with "P" in args standing for
    the poset: all on p, in turn, and each on a fresh equal poset."""
    return [[_outcome(fn, *[q() if a == "P" else a for a in args]) for fn, args in calls]
            for q in (lambda: p, lambda: _fresh(p))]


@st.composite
def _colorings(draw, p):
    """Rank classes, one class per element and labels drawn from three
    values (often invalid: comparable elements sharing one), in drawn order."""
    drawn = {x: draw(st.integers(0, 2)) for x in p.elements}
    return draw(st.permutations([rank_coloring(p), dict(zip(p.elements, range(len(p)))),
                                 drawn]))


def _mode_colorings(data, p, modes):
    """(mode, coloring) for each mode, every coloring of _colorings in
    colored mode."""
    return [(mode, c) for mode in modes
            for c in (data.draw(_colorings(p)) if mode == "colored" else [None])]


@settings(max_examples=40)
@given(dag_covers(max_elements=4), st.lists(families(max_n=4, max_size=10), min_size=2,
                                            max_size=3), st.data())
def test_size_modes_answer_alike_on_a_warm_poset(covers, fams, data):
    """find_copy, creates_copy_through and saturation_check in rank-
    preserving and colored mode: every call on one poset, warmed by the
    families and colourings before it, against the same call on a fresh
    equal poset."""
    p = poset_from_covers(*covers)
    for fam in fams:
        outside = [m for m in range(1 << fam.n) if m not in fam]
        s = data.draw(st.sampled_from(outside)) if outside else None
        for mode, coloring in _mode_colorings(data, p, ("rank_preserving", "colored")):
            calls = [(find_copy, (fam, "P", mode, coloring)),
                     (_saturation_check_of, (fam, "P", mode, coloring))]
            if s is not None:
                calls.append((creates_copy_through, (fam, "P", mode, s, coloring)))
            warm, cold = _warm_and_cold(p, calls)
            assert warm == cold


@settings(max_examples=60)
@given(dag_covers(max_elements=4), dag_covers(max_elements=3), st.integers(1, 4), st.data())
def test_a_warm_pool_answers_as_a_fresh_one(covers, other, n, data):
    """One _Pool walked the way the search walks it (candidates in canonical
    order, each tested, then maybe kept; kept sets dropped from the end),
    tested on two posets in turn: each one-set test and each unanchored
    match on it, after the profiles, forced sizes and posets before,
    against a fresh pool of the same sets."""
    mode = data.draw(st.sampled_from(("rank_preserving", "colored")))
    tables = []
    for p in (poset_from_covers(*covers), poset_from_covers(*other)):
        coloring = data.draw(_colorings(p))[0] if mode == "colored" else None
        try:
            tables.append((p, _class_setup(p, mode, coloring)))
        except (NotGraded, InvalidColoring):
            continue
    warm = _Pool(n, [], {}, set())
    for s in canonical_masks(n):
        if warm.members and data.draw(st.integers(0, 3)) == 0:
            warm.pop()
        for p, classes in tables:
            fresh = _Pool.copy_of(SetFamily(n, tuple(warm.members)))
            fresh_p = _fresh(p)
            fresh_classes = fresh_p.class_table(classes[0])
            assert (_copy_through(warm, p, mode, s, classes)
                    == _copy_through(fresh, fresh_p, mode, s, fresh_classes))
            assert (_find_embedding(warm, p, mode, classes)
                    == _find_embedding(fresh, fresh_p, mode, fresh_classes))
        if data.draw(st.booleans()):
            warm.push(s)


def test_a_pool_starts_one_class_size_walk_per_key(monkeypatch):
    """The search's one pool on the rank-preserving Y(2,2) pair at n = 4:
    each (class table, forced class and size, capped size profile) starts
    one _class_sizes walk, which later calls carry on."""
    walks = []
    original = embed._class_sizes

    def counted(classes, pin, sizes, room, assign, ci=0):
        if ci == 0:
            cap = len(classes[0])
            walks.append((id(classes), pin, tuple(sizes), tuple(min(r, cap) for r in room)))
        return original(classes, pin, sizes, room, assign, ci)

    monkeypatch.setattr(embed, "_class_sizes", counted)
    outcome = la_exact(4, Y22_PAIR, "rank_preserving")
    assert (outcome.value, outcome.nodes_explored) == (10, 2399)
    assert len(walks) == len(set(walks)) == 385



def test_a_spent_walk_keeps_only_its_vectors(monkeypatch):
    """A class-size walk that ends drops its generator; one that a caller
    left at a copy stays open.  t3(2) has no lattice shape, so rank-
    preserving saturation and find_copy both go through the walks."""
    pools = []
    original = _Pool.class_sizes

    def recorded(self, classes, forced):
        pools.append(self)
        return original(self, classes, forced)

    monkeypatch.setattr(_Pool, "class_sizes", recorded)
    t3 = t_r3_poset(2)
    result = saturation_check(middle_layers(9, 2), [t3], "rank_preserving")
    assert result == SaturationResult(False, 0b111111)
    kept = [k for pool in set(pools) for k in pool.walks.values()]
    assert any(walk is None for _, walk in kept)
    assert all(walk is None or walk.gi_frame is not None for _, walk in kept)
    pools.clear()
    fam = SetFamily(4, (1, 8, 5, 10, 7, 13, 14))
    assert find_copy(fam, t3, "rank_preserving") is None
    assert find_copy_bruteforce(fam, t3, "rank_preserving") is None
    kept = [k for pool in set(pools) for k in pool.walks.values()]
    assert kept and all(listed and walk is None for listed, walk in kept)

@settings(max_examples=40)
@given(dag_covers(max_elements=4), st.lists(families(max_n=3, max_size=8), min_size=2,
                                            max_size=3), st.data())
def test_reference_routes_answer_alike_on_a_warm_poset(covers, fams, data):
    """find_copy_bruteforce, is_copy_image and check_embedding in all four
    modes: every call on one poset, warmed by the families, colourings and
    orderings before it, against the same call on a fresh equal poset.  The
    mappings checked are drawn masks, each witness and the witness's masks
    in other orders; the drawn masks are checked in their own order before
    in any order, so both ordering sets meet each inclusion word first."""
    p = poset_from_covers(*covers)
    k = len(p.elements)
    for fam in fams:
        masks = data.draw(st.lists(st.integers(0, (1 << fam.n) - 1), min_size=k, max_size=k,
                                   unique=True) if k <= 1 << fam.n else st.just([]))
        for mode, coloring in _mode_colorings(data, p, MODES):
            calls = [(check_embedding, ("P", dict(zip(p.elements, masks)), mode, coloring)),
                     (is_copy_image, (masks, "P", mode, coloring)),
                     (find_copy_bruteforce, (fam, "P", mode, coloring))]
            witness = _outcome(find_copy_bruteforce, fam, p, mode, coloring)
            if isinstance(witness, embed.Embedding):
                images = list(witness.mapping.values())
                for order in (images, images[::-1], images[1:] + images[:1]):
                    mapping = dict(zip(p.elements, order))
                    calls.append((check_embedding, ("P", mapping, mode, coloring, fam)))
            warm, cold = _warm_and_cold(p, calls)
            assert warm == cold


# ---------------------------------------------------------------------------
# Inclusion bigraphs.

def test_bigraph_full_layers_of_4():
    g = build_inclusion_bigraph(middle_layers(4, 2), 2, 3)
    assert g.edge_count == 12


def test_bigraph_empty_side():
    g = build_inclusion_bigraph(middle_layers(4, 1), 2, 3)
    assert g.edge_count == 0
    assert g.right == ()
    assert InclusionBigraph((), ()).average_degree() == 0


def test_bigraph_middle_layers_of_5():
    g = build_inclusion_bigraph(middle_layers(5, 2), 2, 3)
    assert g.edge_count == 30


def test_bigraph_validation():
    with pytest.raises(InvalidParam):
        build_inclusion_bigraph(middle_layers(4, 2), 3, 2)
    with pytest.raises(InvalidParam):
        InclusionBigraph((0b011, 0b111), (0b1111,))


def test_min_degree_subgraph_keeps_k33():
    left = (0b000001, 0b000010, 0b000100)
    right = tuple(0b000111 | 1 << i for i in (3, 4, 5))
    g = InclusionBigraph(left, right)
    core = min_degree_subgraph(g, 2)
    assert core.left == left and core.right == right


def test_min_degree_subgraph_path_dies():
    # path with 3 edges: {1}-{1,2}, {2}-{1,2}, {2}-{2,3}
    g = InclusionBigraph((0b001, 0b010), (0b011, 0b110))
    assert g.edge_count == 3
    core = min_degree_subgraph(g, 2)
    assert core.vertex_count == 0


def test_min_degree_subgraph_matches_networkx(rng):
    for _ in range(60):
        n = rng.randint(4, 7)
        i = rng.randint(1, n - 2)
        j = rng.randint(i + 1, n - 1)
        left = [m for m in full_layer(n, i) if rng.random() < 0.6]
        right = [m for m in full_layer(n, j) if rng.random() < 0.6]
        g = InclusionBigraph(tuple(left), tuple(right))
        d = rng.randint(1, 4)
        core = min_degree_subgraph(g, d)
        nxg = nx.Graph()
        nxg.add_nodes_from(("L", m) for m in g.left)
        nxg.add_nodes_from(("R", m) for m in g.right)
        for a, row in zip(g.left, g.left_rows):
            nxg.add_edges_from((("L", a), ("R", b)) for ri, b in enumerate(g.right)
                               if row >> ri & 1)
        nxcore = nx.k_core(nxg, d)
        assert set(core.left) == {m for s, m in nxcore.nodes if s == "L"}
        assert set(core.right) == {m for s, m in nxcore.nodes if s == "R"}


def test_average_degree_threshold_gives_nonempty_core(rng):
    for _ in range(60):
        d = rng.randint(2, 4)
        n = rng.randint(5, 8)
        i = rng.randint(1, n - 3)
        j = rng.randint(i + 1, n - 1)
        left = [m for m in full_layer(n, i) if rng.random() < 0.8]
        right = [m for m in full_layer(n, j) if rng.random() < 0.8]
        g = InclusionBigraph(tuple(left), tuple(right))
        if g.vertex_count and g.average_degree() > 2 * (d - 1):
            assert min_degree_subgraph(g, d).vertex_count > 0


def test_greedy_embed_star_into_k33():
    left = (0b000001, 0b000010, 0b000100)
    right = tuple(0b000111 | 1 << i for i in (3, 4, 5))
    g = InclusionBigraph(left, right)
    emb = greedy_tree_embed(g, y_poset(1, 3))
    assert check_embedding(y_poset(1, 3), emb.mapping, "rank_preserving")


def test_greedy_embed_takes_the_first_free_neighbour():
    # {1,2,3} and {1,2,4} are missing, so c lands on {1,3,4}; b takes c's
    # first free neighbour {3}, and d, e the first free neighbours of b's
    right = tuple(m for m in full_layer(5, 3) if m not in (0b00111, 0b01011))
    g = InclusionBigraph(tuple(full_layer(5, 1)), right)
    tree = poset_from_covers("abcde", [("a", "c"), ("b", "c"), ("b", "d"), ("b", "e")])
    emb = greedy_tree_embed(g, tree)
    assert emb.mapping == {"a": 0b00001, "c": 0b01101, "b": 0b00100, "d": 0b01110,
                           "e": 0b10101}


def test_greedy_embed_fails_on_single_edge():
    g = InclusionBigraph((0b001,), (0b011,))
    with pytest.raises(EmbedFailed):
        greedy_tree_embed(g, y_poset(1, 3))


def test_greedy_embed_rejects_non_tree_input():
    g = InclusionBigraph((0b001,), (0b011,))
    with pytest.raises(InvalidParam):
        greedy_tree_embed(g, complete_multilevel([2, 2]))
    with pytest.raises(InvalidParam):
        greedy_tree_embed(g, chain(3))


def test_greedy_embed_min_degree_guarantee(rng):
    # any 4-element height-2 tree embeds once the minimum degree is >= 3
    trees = all_height2_tree_posets(4)
    for _ in range(40):
        n = rng.randint(6, 8)
        i = rng.randint(1, n - 4)
        j = rng.randint(i + 2, n - 1)
        left = [m for m in full_layer(n, i) if rng.random() < 0.85]
        right = [m for m in full_layer(n, j) if rng.random() < 0.85]
        core = min_degree_subgraph(InclusionBigraph(tuple(left), tuple(right)), 3)
        if core.vertex_count == 0:
            continue
        for tree in trees:
            emb = greedy_tree_embed(core, tree)
            assert check_embedding(tree, emb.mapping, "rank_preserving")
            masks = set(emb.mapping.values())
            assert masks <= set(core.left) | set(core.right)


def test_greedy_embed_every_six_element_tree_into_a_5_core(rng):
    # the parent-first walk needs minimum degree >= t - 1 = 5 for t = 6
    trees = all_height2_tree_posets(6)
    for _ in range(10):
        left = [m for m in full_layer(8, 2) if rng.random() < 0.8]
        right = [m for m in full_layer(8, 5) if rng.random() < 0.8]
        core = min_degree_subgraph(InclusionBigraph(tuple(left), tuple(right)), 5)
        assert core.vertex_count > 0
        for tree in trees:
            emb = greedy_tree_embed(core, tree)
            assert check_embedding(tree, emb.mapping, "rank_preserving")


def test_dual_poset_copy_symmetry(rng):
    # F contains a weak copy of P iff the complement family contains dual(P)
    from posetlab.poset import dual

    for _ in range(60):
        fam = random_family(rng, 4, 10)
        poset = random_graded_poset(rng, 4)
        comp = SetFamily(4, tuple(m ^ 0b1111 for m in fam.members))
        a = find_copy(fam, poset, "weak") is not None
        b = find_copy(comp, dual(poset), "weak") is not None
        assert a == b
