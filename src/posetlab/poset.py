"""Finite posets given by Hasse diagrams.

Elements carry opaque string labels.  Posets are capped at 64 elements so
the full order relation fits in one bitmask per element: ``up[i]`` has bit
``j`` set iff element i <= element j.  A Poset takes any pairs of the
intended order: its constructor checks the labels and pairs, closes them
once through ``Poset.up``, reads the cycle check off that closure and keeps
the sorted transitive reduction as ``covers``; instances are immutable.
Everything derived from the order (ranks, height, rank classes, minimal
and maximal elements, permutation patterns) is read off ``up`` and
``down``, and only the Hasse neighbours and walks off ``covers``.  Each is
a cached property, computed once per instance, and a table that also
depends on an argument (a colouring's class table, embed's reference
testers) sits in the instance's memo under that argument; no module keeps
a table keyed by a poset.
"""
from __future__ import annotations

import json
from functools import cached_property
from itertools import combinations, permutations, product

from .errors import CycleError, DuplicateLabel, InvalidColoring, InvalidParam, NotGraded
from .value import Value

MAX_ELEMENTS = 64

TREE_CLASSES = ("not_tree", "tree", "monotone_increasing", "monotone_decreasing")


class Poset(Value):
    """Immutable poset: labels in fixed order plus the sorted cover list.

    ``elements`` may be any iterable of labels, stored as a tuple, and
    ``covers`` any pairs (x below y) of the intended order; the stored
    cover list is the transitive reduction of their reflexive-
    transitive closure, sorted.  Raises InvalidParam on no labels (every
    family holds the empty poset, so it forbids nothing), more than
    MAX_ELEMENTS or a pair with an unknown label, DuplicateLabel on
    repeated labels, CycleError on a self-relation or a closure that is not
    antisymmetric.
    """

    _fields = ("elements", "covers")  # tuple[str, ...], tuple[tuple[str, str], ...]

    def __post_init__(self):
        labels = tuple(self.elements)
        object.__setattr__(self, "elements", labels)
        object.__setattr__(self, "covers", tuple(self.covers))
        if not labels:
            raise InvalidParam("a poset needs at least one element")
        if len(set(labels)) != len(labels):
            raise DuplicateLabel("element labels must be unique")
        if len(labels) > MAX_ELEMENTS:
            raise InvalidParam(f"at most {MAX_ELEMENTS} elements supported")
        idx = self.index
        for a, b in self.covers:
            if a not in idx or b not in idx:
                raise InvalidParam(f"cover pair ({a!r}, {b!r}) uses an unknown label")
            if a == b:
                raise CycleError(f"self-relation on {a!r}")
        up, down = self.up, self.down
        n = len(labels)
        for i in range(n):
            if up[i] & down[i] != 1 << i:
                j = (up[i] & down[i]).bit_length() - 1
                raise CycleError(f"{labels[i]!r} and {labels[j]!r} lie on a cycle")
        # j covers i iff the interval [i, j] holds just the two of them; the
        # reduction has the same closure, so up and down stay cached
        object.__setattr__(self, "covers", tuple(sorted(
            (labels[i], labels[j]) for i in range(n) for j in range(n)
            if i != j and up[i] & down[j] == 1 << i | 1 << j)))

    def __len__(self):
        return len(self.elements)

    @cached_property
    def index(self):
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def neighbours(self):
        """neighbours[i] = sorted indices joined to i by a Hasse edge, either way."""
        idx = self.index
        joined = [[] for _ in self.elements]
        for a, b in self.covers:
            joined[idx[a]].append(idx[b])
            joined[idx[b]].append(idx[a])
        return tuple(tuple(sorted(j)) for j in joined)

    @cached_property
    def up(self):
        """up[i]: bitmask of indices j with element_i <= element_j (reflexive):
        the closure of the pairs the poset was given, by Warshall over
        bitmask rows, read first by the constructor."""
        idx = self.index
        up = [1 << i for i in range(len(self.elements))]
        for a, b in self.covers:
            up[idx[a]] |= 1 << idx[b]
        for j, row in enumerate(up):
            for i in range(len(up)):
                if up[i] >> j & 1:
                    up[i] |= row
        return tuple(up)

    @cached_property
    def down(self):
        """down[i]: bitmask of indices j with element_j <= element_i (reflexive)."""
        n = len(self.elements)
        down = [1 << i for i in range(n)]
        for i in range(n):
            ui = self.up[i]
            for j in range(n):
                if ui >> j & 1:
                    down[j] |= 1 << i
        return tuple(down)

    @cached_property
    def ranks(self):
        """ranks[i]: length of the longest chain strictly below element i, one
        more than the largest rank in its strict down-set.  Elements below i
        reach fewer elements down, so they are ranked first."""
        down = self.down
        n = len(down)
        rank = [0] * n
        for i in sorted(range(n), key=lambda i: down[i].bit_count()):
            rank[i] = 1 + max([rank[j] for j in range(n) if down[i] >> j & 1 and j != i],
                              default=-1)
        return tuple(rank)

    @cached_property
    def graded(self):
        """Every cover jumps exactly one rank."""
        idx, rank = self.index, self.ranks
        return all(rank[idx[b]] - rank[idx[a]] == 1 for a, b in self.covers)

    @cached_property
    def height(self):
        """Number of elements of a longest chain."""
        return 1 + max(self.ranks)

    @cached_property
    def hasse_orders(self):
        """hasse_orders[f]: DFS order over the Hasse graph from element f, so
        every element but the root of each component follows a neighbour;
        every start's order is built on the first lookup."""
        n, neighbours = len(self.elements), self.neighbours
        orders = []
        for first in range(n):
            order, seen = [], set()
            for root in (first, *range(n)):
                stack = [] if root in seen else [root]
                seen.add(root)
                while stack:
                    i = stack.pop()
                    order.append(i)
                    fresh = [j for j in reversed(neighbours[i]) if j not in seen]
                    seen.update(fresh)
                    stack += fresh
            orders.append(tuple(order))
        return tuple(orders)

    @cached_property
    def memo(self):
        """Tables derived from the order and one more argument, each a pure
        function of its key: the class table per labelling here, embed's
        reference testers and the orderings each inclusion word passes."""
        return {}

    def class_table(self, raw):
        """Class index per element for the labels raw (one per element); per
        class c, the classes of smaller index that hold an element strictly
        below, and strictly above, an element of c; the class sizes.
        InvalidColoring when two comparable elements share a label: the
        first such pair i < j is named.  Built once per labelling (memo)."""
        key = ("class_table", *raw)
        if key in self.memo:
            return self.memo[key]
        ids = sorted(set(raw))
        cls_of = tuple(ids.index(c) for c in raw)
        less = set()
        for i, j in combinations(range(len(self.elements)), 2):
            if self.up[i] >> j & 1:
                less.add((cls_of[i], cls_of[j]))
            elif self.up[j] >> i & 1:
                less.add((cls_of[j], cls_of[i]))
            else:
                continue
            if cls_of[i] == cls_of[j]:
                raise InvalidColoring(f"comparable elements {self.elements[i]!r}, "
                                      f"{self.elements[j]!r} share a color")
        below = tuple(tuple(b for b in range(c) if (b, c) in less) for c in range(len(ids)))
        above = tuple(tuple(a for a in range(c) if (c, a) in less) for c in range(len(ids)))
        table = self.memo[key] = cls_of, below, above, tuple(map(cls_of.count, range(len(ids))))
        return table

    @cached_property
    def rank_classes(self):
        """The class table of the rank classes; NotGraded unless graded."""
        if not self.graded:
            raise NotGraded("rank-preserving copies need a graded poset")
        return self.class_table(self.ranks)

    def order_pattern(self, perm):
        """(perm, need, apart) for one ordering perm of the n element indices,
        element i placed at position perm[i]: need has bit perm[i] * n +
        perm[j] set for every i strictly below j, apart the same bit for
        every incomparable i, j, both ways round."""
        n, up, down = len(self.elements), self.up, self.down
        need = apart = 0
        for i, j in permutations(range(n), 2):
            bit = 1 << (perm[i] * n + perm[j])
            if up[i] >> j & 1:
                need |= bit
            elif not down[i] >> j & 1:
                apart |= bit
        return perm, need, apart

    @cached_property
    def order_patterns(self):
        """order_pattern of every permutation of the element indices, in
        itertools order: the table of the brute-force matcher in embed."""
        return tuple(map(self.order_pattern, permutations(range(len(self.elements)))))

    @cached_property
    def refined_signature(self):
        """Each element's (down-set size, up-set size) with the sorted
        signatures of its Hasse neighbours, sorted: one round of colour
        refinement, an isomorphism invariant."""
        sig = [(d.bit_count(), u.bit_count()) for d, u in zip(self.down, self.up)]
        return sorted((s, sorted([sig[j] for j in nb])) for s, nb in zip(sig, self.neighbours))

    def le(self, a, b):
        """a <= b in the partial order (labels)."""
        return self.up[self.index[a]] >> self.index[b] & 1 == 1


def poset_from_covers(elements, covers):
    """The Poset of labels and relation pairs (x below y) given as any iterables."""
    return Poset(elements, covers)


def dual(p):
    """The same elements with the order reversed."""
    return Poset(p.elements, tuple((b, a) for a, b in p.covers))


def height(p):
    """Number of levels: 1 + max rank."""
    return p.height


def rank_coloring(p):
    """Label -> rank, the edge count of the longest chain ending there;
    as a coloring its classes are antichains for any poset."""
    return dict(zip(p.elements, p.ranks))


def classify_tree(p):
    """One of not_tree | tree | monotone_increasing | monotone_decreasing.

    Tree = the Hasse diagram, as an undirected graph, is connected and
    acyclic.  A tree with a unique minimal element is monotone increasing
    (this takes precedence for chains, which qualify both ways); a unique
    maximal element gives monotone decreasing.
    """
    n = len(p.elements)
    if len(p.covers) != n - 1:
        return "not_tree"
    placed = set()
    for i in p.hasse_orders[0]:  # connected iff no element starts a new component
        if placed and placed.isdisjoint(p.neighbours[i]):
            return "not_tree"
        placed.add(i)
    minimal = [i for i in range(n) if p.down[i] == 1 << i]
    maximal = [i for i in range(n) if p.up[i] == 1 << i]
    if len(minimal) == 1:
        return "monotone_increasing"
    if len(maximal) == 1:
        return "monotone_decreasing"
    return "tree"


# ---------------------------------------------------------------------------
# Generators for the standard posets.  Each checks its element count against
# MAX_ELEMENTS before it builds anything.

def _check_cap(kind, count):
    if count > MAX_ELEMENTS:
        raise InvalidParam(f"{kind} has {count} elements; at most {MAX_ELEMENTS} supported")


def chain(k):
    if k < 1:
        raise InvalidParam("chain needs k >= 1")
    _check_cap("chain", k)
    labels = tuple(f"x{i}" for i in range(1, k + 1))
    return Poset(labels, tuple((f"x{i}", f"x{i + 1}") for i in range(1, k)))


def antichain(k):
    if k < 1:
        raise InvalidParam("antichain needs k >= 1")
    _check_cap("antichain", k)
    return Poset(tuple(f"a{i}" for i in range(1, k + 1)), ())


def y_poset(h, s):
    """Chain x1 < ... < xh with s pairwise-incomparable tops above xh."""
    if h < 1 or s < 1:
        raise InvalidParam("y needs h, s >= 1")
    _check_cap("y", h + s)
    labels = tuple(f"x{i}" for i in range(1, h + 1)) + tuple(f"y{j}" for j in range(1, s + 1))
    covers = [(f"x{i}", f"x{i + 1}") for i in range(1, h)]
    covers += [(f"x{h}", f"y{j}") for j in range(1, s + 1)]
    return Poset(labels, tuple(covers))


def y_prime_poset(h, s):
    """The dual of y_poset(h, s), which checks the element count."""
    return dual(y_poset(h, s))


def t_r3_poset(r, reading="degree"):
    """Monotone increasing height-3 tree with branching factor r.

    reading="degree" (default): every non-leaf has Hasse-degree exactly r,
    so the root has r children and each middle element r-1 children.
    reading="children": every non-leaf has r children.
    """
    if r < 2:
        raise InvalidParam("t_r3 needs r >= 2")
    if reading not in ("degree", "children"):
        raise InvalidParam(f"unknown t_r3 reading {reading!r}")
    per_middle = r - 1 if reading == "degree" else r
    _check_cap("t_r3", 1 + r + r * per_middle)
    labels = ["r0"] + [f"m{i}" for i in range(1, r + 1)]
    covers = [("r0", f"m{i}") for i in range(1, r + 1)]
    leaf = 0
    for i in range(1, r + 1):
        for _ in range(per_middle):
            leaf += 1
            labels.append(f"t{leaf}")
            covers.append((f"m{i}", f"t{leaf}"))
    return Poset(tuple(labels), tuple(covers))


def complete_multilevel(sizes):
    """Levels of the given sizes, every element related to every element of
    every other level."""
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise InvalidParam("level sizes must be positive")
    _check_cap("complete_multilevel", sum(sizes))
    labels = []
    levels = []
    for lvl, s in enumerate(sizes):
        lv = [f"v{lvl}_{j}" for j in range(1, s + 1)]
        labels += lv
        levels.append(lv)
    covers = []
    for lo, hi in zip(levels, levels[1:]):
        covers += [(a, b) for a in lo for b in hi]
    return Poset(tuple(labels), tuple(covers))


# Every name of a kind, for named:K(...) and `poset gen --kind K` alike.
_GENERATORS = {
    "chain": (chain, 1),
    "antichain": (antichain, 1),
    "y": (y_poset, 2),
    "y_prime": (y_prime_poset, 2),
    "y'": (y_prime_poset, 2),
    "t_r3": (t_r3_poset, 1),
    "t3": (t_r3_poset, 1),
    "complete_multilevel": (complete_multilevel, None),
}


def gen_named(kind, params, t3_reading="degree"):
    """Dispatch on any name in _GENERATORS; params is a sequence of positive
    ints (the full sizes list for complete_multilevel)."""
    if kind not in _GENERATORS:
        raise InvalidParam(f"unknown poset kind {kind[:40]!r}; known: {', '.join(_GENERATORS)}")
    fn, arity = _GENERATORS[kind]
    params = list(params)
    if arity is None:
        return fn(params)
    if len(params) != arity:
        raise InvalidParam(f"{kind} takes {arity} parameter(s), got {len(params)}")
    if fn is t_r3_poset:
        return fn(params[0], reading=t3_reading)
    return fn(*params)


# ---------------------------------------------------------------------------
# Isomorphism and small catalogues.

def is_isomorphic(p, q):
    """Order-isomorphism test: is p an induced copy among the principal
    down-sets of q?  x <= y in q iff down(x) is a subset of down(y), so
    q.down is q written as a family of distinct sets, and an induced copy
    of p that uses all of them is an isomorphism.

    embed's matcher searches for the copy with each element of p pinned to
    the down-sets of its own down-set size, which an isomorphism keeps;
    unpinned, a chain whose element 0 sits mid-way backtracks exponentially.
    Before it come exits on the element count, the cover count and
    Poset.refined_signature, which also makes every pinned size one that q
    has, and refutes at once pairs whose one odd component the matcher
    would reach only after re-placing all the others."""
    if len(p) != len(q) or len(p.covers) != len(q.covers) or (
            p.refined_signature != q.refined_signature):
        return False
    from .embed import _backtrack_images, _Pool  # embed imports this module
    from .family import canonical_key

    pool = _Pool(len(q), [], {}, set())
    for mask in sorted(q.down, key=canonical_key):
        pool.push(mask)
    size_of = [d.bit_count() for d in p.down]
    return _backtrack_images(size_of, pool, p, "induced", None) is not None


def _labeled_trees(t):
    """All labeled trees on vertices 0..t-1, t >= 2, as edge lists (Pruefer
    decode; the empty sequence gives the one tree on two vertices)."""
    for seq in product(range(t), repeat=t - 2):
        deg = [1] * t
        for v in seq:
            deg[v] += 1
        edges = []
        for v in seq:
            leaf = next(u for u in range(t) if deg[u] == 1)
            edges.append((leaf, v))
            deg[leaf] -= 1
            deg[v] -= 1
        u, w = (x for x in range(t) if deg[x] == 1)
        edges.append((u, w))
        yield edges


def all_height2_tree_posets(t):
    """Every poset (up to isomorphism) with t elements whose Hasse diagram is
    a tree and whose height is 2.  Both orientations of each tree bipartition
    are included when they differ."""
    if t < 2:
        raise InvalidParam("height-2 tree posets need at least 2 elements")
    found = []
    for edges in _labeled_trees(t):
        adj = [[] for _ in range(t)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        depth = [-1] * t
        depth[0] = 0
        queue = [0]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    queue.append(v)
        labels = tuple(f"v{i}" for i in range(t))
        for bottom_parity in (0, 1):
            covers = []
            for u, v in edges:
                lo, hi = (u, v) if depth[u] % 2 == bottom_parity else (v, u)
                covers.append((labels[lo], labels[hi]))
            cand = poset_from_covers(labels, covers)
            if not any(is_isomorphic(seen, cand) for seen in found):
                found.append(cand)
    return found


# ---------------------------------------------------------------------------
# JSON file format: {"elements": [...], "covers": [["a","b"], ...]}.

def poset_to_json(p):
    """Canonical JSON text: elements as given, covers as stored (sorted)."""
    return json.dumps({"elements": list(p.elements), "covers": [list(c) for c in p.covers]})


def _is_labels(value):
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def poset_from_json(text):
    """Parse the JSON file format; labels must be strings and each cover a
    [below, above] pair of them."""
    try:
        obj = json.loads(text)
        elements, covers = obj["elements"], obj["covers"]
    except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:
        raise InvalidParam(f"malformed poset JSON: {exc}") from exc
    if not (_is_labels(elements) and isinstance(covers, list)
            and all(_is_labels(c) and len(c) == 2 for c in covers)):
        raise InvalidParam("malformed poset JSON: need a list of string labels "
                           "and a list of [below, above] label pairs")
    return poset_from_covers(elements, [tuple(c) for c in covers])
