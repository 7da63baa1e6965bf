"""Finite posets given by Hasse diagrams.

Elements carry opaque string labels.  Posets are capped at 64 elements so
the full order relation fits in one bitmask per element: ``up[i]`` has bit
``j`` set iff element i <= element j.  Construction goes through
:func:`poset_from_covers`, which closes, checks acyclicity and stores the
transitively reduced cover list; instances are immutable afterwards.
Everything derived from the order (relation bitmasks, Hasse lists and
orders, ranks, chain room, height, rank classes) is a cached property,
computed once per instance (a Hasse order once per start element, on its
first lookup); no module keeps a table keyed by a poset.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import CycleError, DuplicateLabel, InvalidParam, NotGraded

MAX_ELEMENTS = 64

TREE_CLASSES = ("not_tree", "tree", "monotone_increasing", "monotone_decreasing")


@dataclass(frozen=True)
class Poset:
    """Immutable poset: labels in fixed order plus an irredundant cover list.

    ``covers`` must already be transitively reduced and acyclic; use
    :func:`poset_from_covers` for raw input.
    """

    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]

    def __len__(self):
        return len(self.elements)

    @cached_property
    def index(self):
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def cover_children(self):
        """cover_children[i] = sorted indices j with element_i covered-by element_j."""
        succ = [[] for _ in self.elements]
        idx = self.index
        for a, b in self.covers:
            succ[idx[a]].append(idx[b])
        return tuple(tuple(sorted(s)) for s in succ)

    @cached_property
    def cover_parents(self):
        pred = [[] for _ in self.elements]
        idx = self.index
        for a, b in self.covers:
            pred[idx[b]].append(idx[a])
        return tuple(tuple(sorted(p)) for p in pred)

    @cached_property
    def neighbours(self):
        """neighbours[i] = sorted indices joined to i by a Hasse edge, either way."""
        return tuple(
            tuple(sorted(self.cover_parents[i] + self.cover_children[i]))
            for i in range(len(self.elements))
        )

    @cached_property
    def up(self):
        """up[i]: bitmask of indices j with element_i <= element_j (reflexive)."""
        n = len(self.elements)
        up = [0] * n
        done = [False] * n

        def visit(i):
            if done[i]:
                return
            m = 1 << i
            for j in self.cover_children[i]:
                visit(j)
                m |= up[j]
            up[i] = m
            done[i] = True

        for i in range(n):
            visit(i)
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
        """ranks[i]: length of the longest chain strictly below element i."""
        return _longest_chains(self.cover_parents, self.down)

    @cached_property
    def graded(self):
        """Every cover jumps exactly one rank."""
        idx, rank = self.index, self.ranks
        return all(rank[idx[b]] - rank[idx[a]] == 1 for a, b in self.covers)

    @cached_property
    def chain_room(self):
        """chain_room[i]: the lengths of the longest chains strictly below
        and strictly above element i, its ranks in the poset and its dual."""
        return tuple(zip(self.ranks, _longest_chains(self.cover_children, self.up)))

    @cached_property
    def height(self):
        """Number of elements of a longest chain."""
        return 1 + max(self.ranks)

    @cached_property
    def hasse_orders(self):
        """hasse_orders[f]: DFS order over the Hasse graph from element f, so
        every element but the root of each component follows a neighbour;
        each start's order is built on first use."""
        return _HasseOrders(self.neighbours)

    def class_table(self, raw):
        """Class index per element for the labels raw (one per element); per
        class c, the classes of smaller index that hold an element strictly
        below, and strictly above, an element of c; the class sizes."""
        ids = sorted(set(raw))
        cls_of = tuple(ids.index(c) for c in raw)
        n = len(self.elements)
        less = {(cls_of[i], cls_of[j]) for i in range(n) for j in range(n)
                if i != j and self.up[i] >> j & 1}
        below = tuple(tuple(b for b in range(c) if (b, c) in less) for c in range(len(ids)))
        above = tuple(tuple(a for a in range(c) if (c, a) in less) for c in range(len(ids)))
        return cls_of, below, above, tuple(cls_of.count(c) for c in range(len(ids)))

    @cached_property
    def rank_classes(self):
        """The class table of the rank classes; NotGraded unless graded."""
        if not self.graded:
            raise NotGraded("rank-preserving copies need a graded poset")
        return self.class_table(self.ranks)

    def le(self, a, b):
        """a <= b in the partial order (labels)."""
        return self.up[self.index[a]] >> self.index[b] & 1 == 1


class _HasseOrders(dict):
    """Start element -> its Hasse DFS order, filled in on first lookup."""

    def __init__(self, neighbours):
        super().__init__()
        self.neighbours = neighbours

    def __missing__(self, first):
        n = len(self.neighbours)
        order, seen = [], set()
        for root in (first, *range(n)):
            stack = [] if root in seen else [root]
            seen.add(root)
            while stack:
                i = stack.pop()
                order.append(i)
                fresh = [j for j in reversed(self.neighbours[i]) if j not in seen]
                seen.update(fresh)
                stack += fresh
        self[first] = order = tuple(order)
        return order


def poset_from_covers(elements, covers):
    """Build a poset from labels and relation pairs (x below y).

    The pairs may be any subset of the intended order; the stored cover
    list is the transitive reduction of their reflexive-transitive
    closure.  Raises CycleError if the closure is not antisymmetric,
    DuplicateLabel on repeated labels, InvalidParam on no labels: every
    family holds the empty poset, so it forbids nothing.
    """
    labels = tuple(elements)
    if not labels:
        raise InvalidParam("a poset needs at least one element")
    if len(set(labels)) != len(labels):
        raise DuplicateLabel("element labels must be unique")
    if len(labels) > MAX_ELEMENTS:
        raise InvalidParam(f"at most {MAX_ELEMENTS} elements supported")
    idx = {x: i for i, x in enumerate(labels)}
    n = len(labels)
    reach = [1 << i for i in range(n)]
    for a, b in covers:
        if a not in idx or b not in idx:
            raise InvalidParam(f"cover pair ({a!r}, {b!r}) uses an unknown label")
        if a == b:
            raise CycleError(f"self-relation on {a!r}")
        reach[idx[a]] |= 1 << idx[b]
    # Warshall closure over bitmask rows.
    for j in range(n):
        rj = reach[j]
        for i in range(n):
            if reach[i] >> j & 1:
                reach[i] |= rj
    for i in range(n):
        for j in range(i + 1, n):
            if reach[i] >> j & 1 and reach[j] >> i & 1:
                raise CycleError(f"{labels[i]!r} and {labels[j]!r} lie on a cycle")
    strict = [reach[i] & ~(1 << i) for i in range(n)]
    below = [0] * n
    for i in range(n):
        si = strict[i]
        for j in range(n):
            if si >> j & 1:
                below[j] |= 1 << i
    reduced = []
    for i in range(n):
        si = strict[i]
        for j in range(n):
            if si >> j & 1 and strict[i] & below[j] & ~(1 << i) & ~(1 << j) == 0:
                reduced.append((labels[i], labels[j]))
    return Poset(labels, tuple(sorted(reduced)))


def _longest_chains(links, reach):
    """Per element index, the edge count of the longest path along links
    (cover parents or children); linked elements reach fewer elements."""
    length = [0] * len(links)
    for i in sorted(range(len(links)), key=lambda i: reach[i].bit_count()):
        length[i] = 1 + max((length[j] for j in links[i]), default=-1)
    return tuple(length)


def dual(p):
    """The same elements with the order reversed."""
    return Poset(p.elements, tuple(sorted((b, a) for a, b in p.covers)))


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
    minimal = [i for i in range(n) if not p.cover_parents[i]]
    maximal = [i for i in range(n) if not p.cover_children[i]]
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
    return Poset(labels, tuple(sorted(covers)))


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
    return Poset(tuple(labels), tuple(sorted(covers)))


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
    return Poset(tuple(labels), tuple(sorted(covers)))


_GENERATORS = {
    "chain": (chain, 1),
    "antichain": (antichain, 1),
    "y": (y_poset, 2),
    "y_prime": (y_prime_poset, 2),
    "t_r3": (t_r3_poset, 1),
    "complete_multilevel": (complete_multilevel, None),
}


def gen_named(kind, params, t3_reading="degree"):
    """Dispatch on the generator name; params is a sequence of positive ints
    (the full sizes list for complete_multilevel)."""
    if kind not in _GENERATORS:
        raise InvalidParam(f"unknown poset kind {kind!r}")
    fn, arity = _GENERATORS[kind]
    params = list(params)
    if arity is None:
        return fn(params)
    if len(params) != arity:
        raise InvalidParam(f"{kind} takes {arity} parameter(s), got {len(params)}")
    if kind == "t_r3":
        return fn(params[0], reading=t3_reading)
    return fn(*params)


# ---------------------------------------------------------------------------
# Isomorphism and small catalogues.

def is_isomorphic(p, q):
    """Order-isomorphism test by backtracking; fine for the small posets here."""
    n = len(p.elements)
    if n != len(q.elements) or len(p.covers) != len(q.covers):
        return False

    def sig(poset, i):
        return (
            bin(poset.down[i]).count("1"),
            bin(poset.up[i]).count("1"),
            len(poset.cover_parents[i]),
            len(poset.cover_children[i]),
        )

    psig = [sig(p, i) for i in range(n)]
    qsig = [sig(q, i) for i in range(n)]
    if sorted(psig) != sorted(qsig):
        return False
    cands = [[j for j in range(n) if qsig[j] == psig[i]] for i in range(n)]
    image = [-1] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        for j in cands[i]:
            if used[j]:
                continue
            ok = True
            for k in range(i):
                if (p.up[i] >> k & 1) != (q.up[j] >> image[k] & 1) or (
                    p.up[k] >> i & 1
                ) != (q.up[image[k]] >> j & 1):
                    ok = False
                    break
            if ok:
                image[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                used[j] = False
        return False

    return extend(0)


def _labeled_trees(t):
    """All labeled trees on vertices 0..t-1 as edge lists (Pruefer decode)."""
    if t == 1:
        yield []
        return
    if t == 2:
        yield [(0, 1)]
        return
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
            if not any(is_isomorphic(cand, seen) for seen in found):
                found.append(cand)
    return found


# ---------------------------------------------------------------------------
# JSON file format: {"elements": [...], "covers": [["a","b"], ...]}.

def poset_to_json(p):
    """Canonical JSON text: elements as given, covers lexicographic."""
    return json.dumps(
        {"elements": list(p.elements), "covers": [list(c) for c in sorted(p.covers)]}
    )


def _is_labels(value):
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def poset_from_json(text):
    """Parse the JSON file format; labels must be strings and each cover a
    [below, above] pair of them."""
    try:
        obj = json.loads(text)
        elements, covers = obj["elements"], obj["covers"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InvalidParam(f"malformed poset JSON: {exc}") from exc
    if not (_is_labels(elements) and isinstance(covers, list)
            and all(_is_labels(c) and len(c) == 2 for c in covers)):
        raise InvalidParam("malformed poset JSON: need a list of string labels "
                           "and a list of [below, above] label pairs")
    return poset_from_covers(elements, [tuple(c) for c in covers])
