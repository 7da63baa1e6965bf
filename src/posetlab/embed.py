"""Copy detection: does a family contain a poset under a given copy notion?

Copy notions over a family F and poset P (phi: P -> F injective):
  weak             phi(x) subset of phi(y) whenever x <= y
  induced          ... if and only if x <= y
  rank_preserving  weak, plus equal ranks map to equal set sizes (P graded)
  colored          weak, plus equal colors map to equal set sizes

The plain modes backtrack directly over poset elements in a Hasse-connected
order, pruning each candidate against the union of assigned lower images
and the intersection of assigned upper images.  The size-constrained modes
first assign a target size to every rank/color class (sizes must strictly
increase between classes containing comparable elements; unrelated classes
may share a size), then backtrack on images within the size classes.

Cached tables.  Each is a pure function of its key and is read in the
order it was built, so a warm table answers as a fresh one: every witness,
counterexample and node count is the one the tables built anew would give.
  - On the Poset: the order data (Hasse orders, height, rank classes), the
    class table per colouring (Poset.class_table) and the reference tester
    per (pattern test, class table, ordering set), with the orderings each
    inclusion word passes per (pattern test, ordering set) (_copy_tester).
  - On a _Pool, for its lifetime (one find_copy or creates_copy_through,
    one saturation_check, one search): one walk of the class-size vectors
    per class table, forced class and size, and size profile capped at |P|,
    with the vectors it has listed (_Pool.class_sizes).  The weak and
    induced matcher keeps no table.

Height exit (unanchored matcher only).  Every mode maps x < y to phi(x) a
proper subset of phi(y), so a chain of P maps to sets of strictly
increasing sizes, and a longest chain of P takes height(P) distinct sizes.
No copy exists when height(P) exceeds the number of set sizes of the
family: find_copy returns None at once, after the mode's own errors.

Interval route.  Once an element has placed comparable neighbours, its
image must lie in the interval [lower, upper]: lower is the union of the
images below it, upper the intersection of the images above it (the
ground set [n] when none is placed).  On candidate lists of at least
_INTERVAL_MIN sets, when the interval holds fewer points of the sizes the
element may take (its class size, or every size of the family) than
1 / _INTERVAL_COST per candidate, the matcher lists those points, size by
size in ascending order (_interval_members), keeps the ones in the
family's member set and scans only these.  They are exactly the candidates
the scan would let through the interval test, in the same canonical order,
so every embedding, witness and counterexample is the one the scan finds.

Every one-set test (the search, saturation_check, creates_copy_through)
runs in place through _copy_through on a _Pool: it pushes the new set onto
the pool's members, size groups and member set, forces it onto each poset
element in turn (placed first in a Hasse-connected order from there, so
every later candidate is filtered against it) and pops it again.

The check entry points live here too: verify_free runs find_copy per
forbidden poset, and saturation_check probes every outside set in
canonical order through _copy_through, with no family built per probe.
Where lattice.route applies (weak or rank-preserving mode, no colouring,
every forbidden poset a chain of at least 2 elements, a Y(h,s) or a
Y'(h,s), and len(fam) >= 2^n / 64), lattice's whole-lattice maps decide
instead: which posets have a copy, and the first outside set in canonical
order that creates none.  A copy they find is still found by find_copy,
so every witness, counterexample and NotFree is the matcher's.  `check
free` and `check saturated` need only this module, lattice, family and
poset; search re-exports the three names for older callers.

Two more callers use the same parts.  poset.is_isomorphic runs
_backtrack_images, sizes pinned, on a _Pool of principal down-sets: an
induced copy of one poset among the down-sets of another as large is an
isomorphism.  greedy_tree_embed places a tree's elements in
Poset.hasse_orders[0], the walk the matcher takes from element 0, so
every parent comes first.

Tie-breaking is fixed: candidate images in canonical family order, class
sizes ascending, so the returned witness is deterministic.  It is the
first embedding found, not a canonical minimum.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import combinations
from math import comb

from . import lattice
from .errors import (
    AlreadyMember,
    ElementOutOfRange,
    EmbedFailed,
    InvalidColoring,
    InvalidParam,
    NotFree,
)
from .family import _bits, canonical_masks, elements_of, inclusion_rows
from .poset import classify_tree
from .value import Value

MODES = ("weak", "induced", "rank_preserving", "colored")

# The interval route: candidate lists shorter than _INTERVAL_MIN are always
# scanned (every family over [6] has at most 64 members, so the searches up
# to n = 6 keep the scan), longer ones are listed from the interval when it
# holds fewer than 1 / _INTERVAL_COST points per candidate.
_INTERVAL_MIN = 65
_INTERVAL_COST = 4


class Embedding(Value):
    """Witness map from poset labels to family bitmasks."""

    _fields = ("mapping", "mode")  # dict, str

    def to_json_dict(self):
        return {
            "mode": self.mode,
            "map": {x: elements_of(m) for x, m in self.mapping.items()},
        }


def validate_coloring(poset, coloring):
    """Colorings must cover exactly the elements and keep every color class
    an antichain; returns the coloring's Poset.class_table, which makes the
    antichain check while it relates the classes."""
    if coloring is None:
        raise InvalidColoring("a coloring is required")
    if set(coloring) != set(poset.elements):
        raise InvalidColoring("coloring domain must be exactly the poset elements")
    return poset.class_table([coloring[x] for x in poset.elements])


def _check_mode(mode):
    if mode not in MODES:
        raise InvalidParam(f"unknown mode {mode!r}")


def _class_setup(poset, mode, coloring):
    """The mode's Poset.class_table (None in weak and induced mode), after
    its precondition errors.  Callers build it once per poset and coloring
    and pass it to the matcher."""
    _check_mode(mode)
    if mode == "rank_preserving":
        return poset.rank_classes
    if mode == "colored":
        return validate_coloring(poset, coloring)
    return None


def _interval_members(cand, sizes, lower, upper, member_set):
    """The members of cand inside [lower, upper], in cand's order, listed
    lazily from the interval's points of the given sizes (the sizes of
    cand) when cand is at least _INTERVAL_MIN long and those points are
    fewer, by _INTERVAL_COST, than the candidates; otherwise cand itself,
    to be scanned."""
    if len(cand) < _INTERVAL_MIN:
        return cand
    free = upper & ~lower  # lower within upper: each placed f < g has image(f) within image(g)
    f, base = free.bit_count(), lower.bit_count()
    picks = [k - base for k in sizes if base <= k <= base + f]
    if sum([comb(f, r) for r in picks]) * _INTERVAL_COST >= len(cand):
        return cand
    # each size's points sorted: the canonical order within a size group
    bits = [1 << i for i in range(free.bit_length()) if free >> i & 1]
    return (lower | x for r in picks for x in sorted(map(sum, combinations(bits, r)))
            if (lower | x) in member_set)


def _backtrack_images(size_of, pool, poset, mode, forced):
    """Search for an injective image assignment into the pool; returns
    element-index -> mask dict or None.  size_of is None (every element
    scans the pool's members) or size_of[e] the set size assigned to
    element e's class (e scans that size group); either list is in
    canonical order.  forced is None or an (element, mask) pair: that
    element is placed first, so its neighbours are filtered against it at
    once."""
    members, by_size = pool.members, pool.by_size
    routable = len(members) >= _INTERVAL_MIN
    if routable and size_of is None:
        every_size = tuple(filter(by_size.get, sorted(by_size)))  # non-empty
    first, mask = forced or (0, None)
    order = poset.hasse_orders[first]
    n_el = len(order)
    up, down = poset.up, poset.down
    induced = mode == "induced"
    image = {}
    used = set()
    if forced:
        image[first] = mask
        used.add(mask)

    def extend(k):
        if k == n_el:
            return True
        e = order[k]
        cand = members if size_of is None else by_size[size_of[e]]
        lower = 0
        upper = -1
        incomp = []
        de, ue = down[e], up[e]
        for f, mf in image.items():
            if de >> f & 1:
                lower |= mf
            elif ue >> f & 1:
                upper &= mf
            elif induced:
                incomp.append(mf)
        if routable and (lower or upper != -1):
            sizes = every_size if size_of is None else (size_of[e],)
            cand = _interval_members(cand, sizes, lower, upper & pool.ground, pool.member_set)
        for s in cand:
            if s in used or lower & ~s or s & ~upper:
                continue
            if induced and any(s & ~mf == 0 or mf & ~s == 0 for mf in incomp):
                continue
            image[e] = s
            used.add(s)
            if extend(k + 1):
                return True
            del image[e]
            used.discard(s)
        return False

    return dict(image) if extend(len(image)) else None


def _find_embedding(pool, poset, mode, classes, forced=None):
    """First image assignment of the poset into the pool's members, or
    None.  classes is the mode's table from _class_setup: with one, each
    class-size vector of pool.class_sizes is tried in turn.  Without a
    forced set, the height exit first rules out posets higher than the
    number of set sizes."""
    if len(poset.elements) > len(pool.members) or (
            forced is None and poset.height > len(pool.by_size)):
        return None
    for size_of in (None,) if classes is None else pool.class_sizes(classes, forced):
        image = _backtrack_images(size_of, pool, poset, mode, forced)
        if image is not None:
            return image
    return None


def _class_sizes(classes, pin, sizes, room, assign, ci=0):
    """Yield, as the size per element, each assignment of set sizes to the
    classes of a class table from ci on (those before are in assign): in
    class order, sizes ascending, strictly above the sizes of the classes
    below and under those above, with room (members per size) left for the
    class; class pin[0] takes only the size pin[1].  A module-level
    generator, so a walk kept by a _Pool holds no reference to the pool."""
    cls_of, below, above, class_count = classes
    if ci == len(class_count):
        yield tuple([assign[c] for c in cls_of])
        return
    lo = max([assign[cj] for cj in below[ci]], default=-1)
    hi = min([assign[cj] for cj in above[ci]], default=sizes[-1] + 1)
    need = class_count[ci]
    for i, s in enumerate(sizes):
        if lo < s < hi and room[i] >= need and (ci != pin[0] or s == pin[1]):
            assign[ci] = s
            room[i] -= need
            yield from _class_sizes(classes, pin, sizes, room, assign, ci + 1)
            room[i] += need


def _replay(kept):
    """The vectors listed so far, then the walk on from there, listing each
    vector it reaches.  The walk is read by a for loop, not yield from, so
    a caller that stops at a copy leaves the shared walk open; a walk that
    ends is dropped, and only the vectors it listed stay."""
    listed = kept[0]
    yield from listed
    if kept[1] is not None:
        for size_of in kept[1]:
            listed.append(size_of)
            yield size_of
        kept[1] = None


class _Pool:
    """The sets a copy may use: members in canonical order (a set under a
    one-set test sits at the end), the same sets grouped by size, the same
    sets as a set for the interval route, and the ground set [n] as a mask.
    push and pop change all three views together.  walks holds the
    class-size walks of class_sizes, which live and die with the pool."""

    __slots__ = ("members", "by_size", "member_set", "ground", "walks")

    def __init__(self, n, members, by_size, member_set):
        self.members = members
        self.by_size = by_size
        self.member_set = member_set
        self.ground = (1 << n) - 1
        self.walks = {}

    @classmethod
    def copy_of(cls, fam):
        """Copies of the family's lists, for push and pop."""
        return cls(fam.n, list(fam.members), {k: list(v) for k, v in fam.by_size.items()},
                   set(fam.members))

    def push(self, s):
        self.members.append(s)
        self.by_size.setdefault(s.bit_count(), []).append(s)
        self.member_set.add(s)

    def pop(self):
        s = self.members.pop()
        self.by_size[s.bit_count()].pop()
        self.member_set.discard(s)
        return s

    def class_sizes(self, classes, forced):
        """The class-size vectors of a class table on the pool's sets, from
        the first, in the order of the _class_sizes walk.

        They are a pure function of the class table and a key, an int of
        7-bit fields: the forced class + 1 (0 when nothing is forced), the
        forced size, then each size's member count capped at |P| (a class
        never needs more, so the cap changes no room test, and it bounds
        the keys by the lattice, not by the calls).  The pool keeps one
        walk per (class table, key) as a [listed vectors, walk] pair: a
        call reads those, then carries the same walk on, so each vector is
        produced once; the walk goes to None when it ends."""
        by_size, k = self.by_size, len(classes[0])
        pin = (classes[0][forced[0]], forced[1].bit_count()) if forced else (-1, 0)
        key = pin[0] + 1 | pin[1] << 7
        for s, group in by_size.items():
            count = len(group)
            key |= (count if count < k else k) << 14 + 7 * s
        kept = self.walks.get((classes, key))
        if kept is None:
            sizes = sorted([s for s, group in by_size.items() if group])
            walk = _class_sizes(classes, pin, sizes, [len(by_size[s]) for s in sizes],
                                [None] * len(classes[3]))
            kept = self.walks[classes, key] = [[], walk]
        return _replay(kept)


def _copy_through(pool, poset, mode, new_mask, classes):
    """Image (element index -> mask) of a copy that uses new_mask, or None.
    new_mask joins the pool for the test and leaves again, even on an
    error.  Placed first and skipped as used later, it cannot change the
    search order by where it sits; a size group it leaves empty is too
    small to be assigned."""
    pool.push(new_mask)
    try:
        for e in range(len(poset.elements)):
            image = _find_embedding(pool, poset, mode, classes, (e, new_mask))
            if image is not None:
                return image
        return None
    finally:
        pool.pop()


def _to_embedding(image, poset, mode):
    return Embedding({poset.elements[e]: m for e, m in sorted(image.items())}, mode)


def find_copy(fam, poset, mode="weak", coloring=None):
    """First copy of the poset in the family under the given mode, or None."""
    classes = _class_setup(poset, mode, coloring)
    pool = _Pool(fam.n, fam.members, fam.by_size, fam.member_set)  # read only
    image = _find_embedding(pool, poset, mode, classes)
    return None if image is None else _to_embedding(image, poset, mode)


def find_colored_copy(fam, poset, coloring):
    """Copy whose equal-colored elements get equal set sizes; with the rank
    coloring of a graded poset this coincides with rank_preserving."""
    return find_copy(fam, poset, "colored", coloring)


def creates_copy_through(fam, poset, mode, new_mask, coloring=None):
    """Witness copy in family + {new_mask} whose image uses new_mask, or
    None.  This is the whole freeness delta of adding one set."""
    _check_mode(mode)
    if new_mask in fam:
        raise AlreadyMember(f"mask {new_mask} is already a member")
    if not 0 <= new_mask < 1 << fam.n:
        raise ElementOutOfRange(f"mask {new_mask} does not fit in [{fam.n}]")
    classes = _class_setup(poset, mode, coloring)
    image = _copy_through(_Pool.copy_of(fam), poset, mode, new_mask, classes)
    return None if image is None else _to_embedding(image, poset, mode)


def verify_free(fam, forbidden, mode="weak", coloring=None):
    """(True, None) when no forbidden poset has a copy, else (False, witness).
    Where lattice.route applies, its maps rule posets out, and find_copy
    runs only on the first poset they find a copy of."""
    forbidden = tuple(forbidden)  # read twice below
    shapes = lattice.route(fam, forbidden, mode, coloring)
    found = [True] * len(forbidden) if shapes is None else lattice.copies(fam, shapes, mode)
    for p, copy in zip(forbidden, found):
        witness = find_copy(fam, p, mode, coloring) if copy else None
        if witness is not None:
            return False, witness
    return True, None


SaturationResult = namedtuple("SaturationResult", "saturated counterexample", defaults=(None,))


def saturation_check(fam, forbidden, mode="weak", coloring=None):
    """Is the family free and does every outside set create a copy?

    Raises NotFree when the input already contains a forbidden copy; the
    first counterexample in canonical order is reported otherwise.
    """
    forbidden = tuple(forbidden)  # read three times below
    free, witness = verify_free(fam, forbidden, mode, coloring)
    if not free:
        raise NotFree(witness)
    shapes = lattice.route(fam, forbidden, mode, coloring)
    if shapes is not None:
        missing = lattice.first_uncreated(fam, shapes, mode)
        return SaturationResult(missing is None, missing)
    tables = [(p, _class_setup(p, mode, coloring)) for p in forbidden]
    pool = _Pool.copy_of(fam)
    for s in canonical_masks(fam.n):
        if s not in fam and all(
            _copy_through(pool, p, mode, s, classes) is None for p, classes in tables
        ):
            return SaturationResult(False, s)
    return SaturationResult(True, None)


# ---------------------------------------------------------------------------
# Reference matcher: every k-set of members in every ordering, nothing
# pruned and no code shared with the backtracking matcher, so a fault in
# either shows up as a disagreement.  An ordering is tested whole: rel has
# bit a * k + b set iff position a of the k-set is a subset of position b;
# Poset.order_pattern puts each pair's bit at the positions the ordering
# gives it.  need & ~rel == 0 iff every strict pair i < j lands on an
# inclusion, apart & rel == 0 iff every incomparable pair lands on sets
# neither of which contains the other: the per-pair conditions, all at
# once.  Equal class => equal size is checked pair by pair on the
# orderings that pass.

def _copy_tester(poset, mode, coloring, given_order=False):
    """first(combo): the first ordering of the distinct masks combo (masks
    indexed like poset.elements) that meets every copy condition of the
    mode, or None.  The orderings tried are Poset.order_patterns, every
    permutation in itertools order, or with given_order only combo's own.

    A tester depends on the mode only through its pattern test (induced or
    not) and its class table: it is built once per (pattern test, class
    table, ordering set) and kept in poset.memo.  Per pattern test and
    ordering set, the memo also keeps for each inclusion word rel the
    patterns that rel passes, as a bit mask over their indices.  Both are
    pure functions of their keys, so a warm tester returns what a fresh
    one would, and the memo never leaves embed's reference code."""
    classes = _class_setup(poset, mode, coloring)
    induced = mode == "induced"
    key = ("copy_tester", induced, classes, given_order)
    if key in poset.memo:
        return poset.memo[key]
    k = len(poset.elements)
    patterns = (poset.order_pattern(range(k)),) if given_order else poset.order_patterns
    same_class = [(i, j) for i, j in combinations(range(k), 2)
                  if classes and classes[0][i] == classes[0][j]]
    passing = poset.memo.setdefault(("passing", induced, given_order), {})

    def first(combo):
        rel, bit = 0, 1  # the diagonal bits are set too; no pattern holds them
        for x in combo:
            for y in combo:  # bit a * k + b: position a within position b
                if not x & ~y:
                    rel |= bit
                bit <<= 1
        if rel not in passing:
            passing[rel] = sum([1 << i for i, (perm, need, apart) in enumerate(patterns)
                                if not (need & ~rel or induced and apart & rel)])
        for index in _bits(passing[rel]):
            masks = tuple([combo[p] for p in patterns[index][0]])
            if all(masks[i].bit_count() == masks[j].bit_count() for i, j in same_class):
                return masks
        return None

    poset.memo[key] = first
    return first


def is_copy_image(masks, poset, mode="weak", coloring=None):
    """True iff the masks, as a whole subfamily, are the image of some copy:
    some permutation of them passes the reference matcher's pattern test."""
    _check_mode(mode)
    masks = tuple(masks)
    n = len(poset.elements)
    if len(masks) != n or len(set(masks)) != n:
        return False
    return _copy_tester(poset, mode, coloring)(masks) is not None


def find_copy_bruteforce(fam, poset, mode="weak", coloring=None):
    """Same contract as :func:`find_copy`, by exhaustive injective search:
    the member k-sets in canonical combination order, each in every
    permutation; the first that passes is the witness."""
    _check_mode(mode)
    first = _copy_tester(poset, mode, coloring)
    for combo in combinations(fam.members, len(poset.elements)):
        masks = first(combo)
        if masks is not None:
            return Embedding(dict(zip(poset.elements, masks)), mode)
    return None


def check_embedding(poset, mapping, mode="weak", coloring=None, family=None):
    """Validate a witness (injectivity, order and size conditions, optionally
    membership in a family) on its own assignment: no permutation table."""
    _check_mode(mode)
    if set(mapping) != set(poset.elements):
        return False
    masks = [mapping[x] for x in poset.elements]
    if len(set(masks)) != len(masks):
        return False
    if family is not None and any(m not in family for m in masks):
        return False
    return _copy_tester(poset, mode, coloring, given_order=True)(masks) is not None


# ---------------------------------------------------------------------------
# Inclusion bigraphs, as bitset rows, and the greedy tree embedding.

class InclusionBigraph(Value):
    """Bipartite inclusion graph between two fixed set sizes.

    Vertices are masks (left side strictly smaller sets); the edge set is
    always exactly the inclusion relation, so induced subgraphs stay
    consistent by construction.  left_rows[li] has bit ri set iff left[li]
    is a subset of right[ri]; right_rows, the transpose, is family.inclusion_rows
    on complements.  Both cost |left| * i + |right| * (n - j) big-int ANDs.
    """

    _fields = ("left", "right")  # tuple[int, ...] each

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(sorted(set(self.left))))
        object.__setattr__(self, "right", tuple(sorted(set(self.right))))
        lsizes = {m.bit_count() for m in self.left}
        rsizes = {m.bit_count() for m in self.right}
        if len(lsizes) > 1 or len(rsizes) > 1:
            raise InvalidParam("each side must be a single set size")
        if lsizes and rsizes and max(lsizes) >= min(rsizes):
            raise InvalidParam("left side must be the strictly smaller size")

    @cached_property
    def left_rows(self):
        return tuple(inclusion_rows(self.left, self.right))

    @cached_property
    def right_rows(self):
        full = (1 << max(self.left + self.right, default=0).bit_length()) - 1
        return tuple(inclusion_rows([full ^ b for b in self.right], [full ^ a for a in self.left]))

    @property
    def edge_count(self):
        return sum(row.bit_count() for row in self.left_rows)

    @property
    def vertex_count(self):
        return len(self.left) + len(self.right)

    def average_degree(self):
        from fractions import Fraction

        if self.vertex_count == 0:
            return Fraction(0)
        return Fraction(2 * self.edge_count, self.vertex_count)


def build_inclusion_bigraph(fam, i, j):
    """Inclusion bigraph between the size-i and size-j members."""
    if i >= j:
        raise InvalidParam("need i < j")
    return InclusionBigraph(fam.by_size.get(i, ()), fam.by_size.get(j, ()))


def min_degree_subgraph(graph, d):
    """Maximal subgraph with minimum degree >= d (the d-core).

    Peeling repeatedly deletes the lowest-indexed vertex of minimum degree
    (left vertices indexed before right) while that minimum is below d; the
    surviving subgraph is order-independent, the trace is reproducible.
    """
    if d < 1:
        raise InvalidParam("need d >= 1")
    nl = len(graph.left)
    rows = [row << nl for row in graph.left_rows] + list(graph.right_rows)
    deg = [row.bit_count() for row in rows]
    alive = (1 << len(rows)) - 1
    while alive:
        v = min(_bits(alive), key=deg.__getitem__)
        if deg[v] >= d:
            break
        alive ^= 1 << v
        for u in _bits(rows[v] & alive):
            deg[u] -= 1
    return InclusionBigraph(
        tuple(graph.left[v] for v in _bits(alive & (1 << nl) - 1)),
        tuple(graph.right[v] for v in _bits(alive >> nl)),
    )


def greedy_tree_embed(graph, tree):
    """Greedily embed a height-2 tree poset: minimal elements onto left
    vertices, maximal onto right, Hasse edges onto inclusion edges.

    Elements are placed in the walk tree.hasse_orders[0]; in a tree it
    places exactly one neighbour before each element but the first, its
    parent, and the element takes the first free vertex adjacent to the
    parent's: the lowest set bit of the parent's row once the used vertices
    are cleared.  Succeeds whenever the graph has minimum degree >= |tree| - 1:
    the parent lies on the other side, so at most |tree| - 2 vertices of
    the element's side are taken and one of the parent's neighbours is
    free; any walk that places parents first would do.  Below that degree
    it may raise EmbedFailed even though an embedding exists.
    """
    if classify_tree(tree) == "not_tree" or tree.height != 2:
        raise InvalidParam("need a height-2 tree poset")
    ranks = tree.ranks
    sides = (graph.left, graph.right)
    rows = (graph.left_rows, graph.right_rows)
    used = [0, 0]
    slot = {}
    for e in tree.hasse_orders[0]:
        side = ranks[e]
        parent = next((p for p in tree.neighbours[e] if p in slot), None)
        if parent is None:
            pool = (1 << len(sides[side])) - 1
        else:
            pool = rows[1 - side][slot[parent]]
        free = pool & ~used[side]
        if not free:
            raise EmbedFailed(tree.elements[e])
        slot[e] = (free & -free).bit_length() - 1
        used[side] |= free & -free
    mapping = {tree.elements[e]: sides[ranks[e]][v] for e, v in slot.items()}
    return Embedding(mapping, "rank_preserving")
