"""Exact extremal computations over 2^[n] at desk scale.

la_exact runs include/exclude branch-and-bound over all 2^n candidate sets
in canonical order (include branch first).  Feasibility pruning works one
set at a time and in place: the included sets, and the same sets grouped
by size, are push/pop lists that embed._copy_through tests a candidate s
on, anchored at s.  The check entry points verify_free and
saturation_check (with SaturationResult) live in embed, so the `check`
commands never load this module; they are re-exported here for callers
that import them from search.  The upper bound is the trivial cardinality
bound, tightened when the forbidden pair is a Y poset together with its
dual, as lattice.shape reads them off the order (for s = 1 both are the
chain of h + 1 elements): once the included family has a chain of h sets
ending at T, at most s-1 further supersets of T fit (per size class in
rank-preserving mode, in total in weak mode).  The remaining supersets of
T are counted by bisecting per-T lists of candidate indices.  Symmetry pruning (n <=
MAX_SYMMETRY_N) ends each branch whose family is not lex-minimal in its
orbit under coordinate permutations, as orderly generation does; the first
largest family is lex-minimal, so value and witness stay.

The branch routine keeps pending branches on an explicit stack, not the
call stack, so exclude chains 2^n deep stay clear of the recursion limit
for every n up to MAX_SEARCH_N.  It walks the whole tree in one process:
the explored-node sequence, value and witness are all deterministic.

exhaustive_max_free closes the tester's copy images upward on lattice's
bitmaps, one bit per family; max_free_layers asks verify_free.
"""
from __future__ import annotations

import time
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, permutations

from .embed import _class_setup, _copy_through, _copy_tester, _Pool, verify_free
# The check entry points live in embed; callers may still import them here.
from .embed import SaturationResult, saturation_check  # noqa: F401
from .errors import InvalidParam
from .family import SetFamily, canonical_masks, middle_layers
from .lattice import _bitmap, _layers, _strict, shape
from .poset import height

MAX_SEARCH_N = 12
MAX_EXHAUSTIVE_N = 4
MAX_SYMMETRY_N = 7


SearchConfig = namedtuple("SearchConfig", "budget_ms symmetry_pruning", defaults=(None, False))
SearchOutcome = namedtuple("SearchOutcome", "value witness nodes_explored mode forbidden exact")


def _detect_y_pair(forbidden):
    """(h, s) when the forbidden set is exactly a Y poset and its dual, read
    by lattice.shape.  With s = 1 both are the chain of h + 1 elements, so
    two equal chains of at least 2 elements count too."""
    if len(forbidden) != 2:
        return None
    a, b = map(shape, forbidden)
    if a and b and a[:2] == b[:2] and (a[1] == 1 or a[2] != b[2]):
        return a[:2]
    return None


@lru_cache(maxsize=4)
def _perm_bits(n):
    """mask -> 1 << the canonical index of its image under each coordinate
    permutation of [n] (itertools order, identity first); the entries for
    one candidate are one shared int."""
    perms = list(permutations(range(n)))
    rows = [[0] * len(perms)]  # rows[mask]: its image masks
    for e in range(n):  # a mask with top element e: the one without e, plus e
        rows += [[x | 1 << p[e] for x, p in zip(row, perms)] for row in rows]
    bit = {m: 1 << c for c, m in enumerate(canonical_masks(n))}
    for row in rows:
        row[:] = map(bit.__getitem__, row)
    return rows


class _Searcher:
    def __init__(self, n, forbidden, mode, classes, cfg, deadline):
        self.n = n
        self.candidates = list(canonical_masks(n))
        self.forbidden = tuple(zip(forbidden, classes))
        self.mode = mode
        self.deadline = deadline
        self.symmetry = cfg.symmetry_pruning
        if self.symmetry and n > MAX_SYMMETRY_N:
            raise InvalidParam(f"symmetry pruning supported for n <= {MAX_SYMMETRY_N}")
        self.perm_bits = _perm_bits(n) if self.symmetry else None
        self.cap = None
        if mode in ("weak", "rank_preserving"):
            self.cap = _detect_y_pair(forbidden)
        self.pool = _Pool(n, [], {}, set())  # the included sets, canonical order
        self.chain_len = {}
        self.h_tops = []
        self.superset_index = {}  # chain top -> level -> candidate indices
        self.best_size = 0
        self.best_members = ()
        self.nodes = 0
        self.exact = True

    def run(self):
        """Branch from the empty family, depth first with the include branch
        first, on an explicit stack.  A spent budget ends the walk and marks
        it inexact."""
        inc = self.pool.members
        total = len(self.candidates)
        todo = [(0, 0)]  # (candidate index, included sets to keep)
        while todo:
            i, kept = todo.pop()
            while len(inc) > kept:
                self._pop()
            self.nodes += 1
            if self.deadline is not None and time.monotonic() > self.deadline:
                self.exact = False
                return
            required = self.best_size + 1
            if len(inc) + (total - i) < required:  # len(inc) <= best_size: also ends i == total
                continue
            if self.cap and self.h_tops and len(inc) + self._capped_remaining(i) < required:
                continue
            todo.append((i + 1, len(inc)))  # exclude branch, after the include subtree
            s = self.candidates[i]
            if all(_copy_through(self.pool, p, self.mode, s, classes) is None
                   for p, classes in self.forbidden):
                self._push(s)
                if len(inc) > self.best_size:
                    self.best_size, self.best_members = len(inc), tuple(inc)
                if not (self.symmetry and not self._lex_minimal()):
                    todo.append((i + 1, len(inc)))

    def _push(self, s):
        if self.cap:
            h, _ = self.cap
            best_below = 0
            for a in self.pool.members:
                if a & ~s == 0:
                    best_below = max(best_below, self.chain_len[a])
            self.chain_len[s] = best_below + 1
            if best_below + 1 >= h:
                self.h_tops.append(s)
        self.pool.push(s)

    def _pop(self):
        s = self.pool.pop()
        if self.cap:
            del self.chain_len[s]
            if self.h_tops and self.h_tops[-1] == s:
                self.h_tops.pop()

    # -- bounds ------------------------------------------------------------

    def _capped_remaining(self, i):
        base = len(self.candidates) - i
        _, s_param = self.cap
        best = base
        for t in self.h_tops:
            rem_lv = {}  # never empty: [n] is above t and, as the last candidate, undecided
            for lv, idx in self._supersets(t).items():
                cnt = len(idx) - bisect_left(idx, i)
                if cnt:
                    rem_lv[lv] = cnt
            inc_lv = {}
            for a in self.pool.members:
                if t & ~a == 0 and a != t:
                    lv = self._level(a)
                    inc_lv[lv] = inc_lv.get(lv, 0) + 1
            bound = base
            for lv, cnt in rem_lv.items():
                allow = max(0, s_param - 1 - inc_lv.get(lv, 0))
                bound -= cnt - min(cnt, allow)
            best = min(best, bound)
        return best

    def _level(self, a):
        """The class the cap counts a set in: its size in rank-preserving
        mode, one class for all sets in weak mode."""
        return a.bit_count() if self.mode == "rank_preserving" else 0

    def _supersets(self, t):
        """level -> ascending indices of the candidates strictly above t,
        built the first time t is a chain top."""
        index = self.superset_index.get(t)
        if index is None:
            index = {}
            for j, r in enumerate(self.candidates):
                if t & ~r == 0 and r != t:
                    index.setdefault(self._level(r), []).append(j)
            self.superset_index[t] = index
        return index

    def _lex_minimal(self):
        """False iff a coordinate permutation maps the family to one first in
        canonical order.  Both are equal-size sets of candidate bits; below
        their lowest differing bit they agree, and there one has that bit
        and the other only higher ones, so the image sorts first exactly
        when the lowest bit of image ^ family lies in the image."""
        rows = [self.perm_bits[m] for m in self.pool.members]
        images = list(map(sum, zip(*rows)))  # distinct sets, so disjoint bits
        family = images[0]  # the identity's image
        return not any((d := image ^ family) & -d & image for image in images)


def la_exact(n, forbidden, mode="weak", cfg=None, coloring=None):
    """Largest family over [n] avoiding every forbidden poset in the given
    mode, by branch-and-bound; exact unless the time budget cut it short."""
    if not 1 <= n <= MAX_SEARCH_N:
        raise InvalidParam(f"search supports 1 <= n <= {MAX_SEARCH_N}")
    forbidden = tuple(forbidden)
    classes = tuple(_class_setup(p, mode, coloring) for p in forbidden)
    cfg = cfg or SearchConfig()
    if cfg.budget_ms is not None and cfg.budget_ms < 0:
        raise InvalidParam("budget_ms must not be negative")
    deadline = None
    if cfg.budget_ms is not None:
        deadline = time.monotonic() + cfg.budget_ms / 1000.0
    searcher = _Searcher(n, forbidden, mode, classes, cfg, deadline)
    searcher.run()
    witness = SetFamily(n, searcher.best_members)
    return SearchOutcome(searcher.best_size, witness, searcher.nodes, mode, forbidden,
                         searcher.exact)


def exhaustive_max_free(n, forbidden, mode="weak", coloring=None):
    """Independent route for tiny n: mark every subfamily that is exactly a
    copy image (by the reference matcher, set up once per forbidden poset),
    close upward over all 2^(2^n) families, read off the largest unmarked,
    the first in numeric order of its size.

    Family F (bit c set iff it holds canonical candidate c) is bit F of a
    lattice bitmap in dimension 2^n, so lattice's strict up-closure marks
    every family above a marked one, and its top size layer that holds an
    unmarked family holds the first such family at its lowest bit."""
    if not 1 <= n <= MAX_EXHAUSTIVE_N:
        raise InvalidParam(f"exhaustive enumeration supports n <= {MAX_EXHAUSTIVE_N}")
    forbidden = tuple(forbidden)
    masks = list(canonical_masks(n))
    m = len(masks)
    marked = set()
    for p in forbidden:
        first = _copy_tester(p, mode, coloring)  # raises the mode's errors
        for combo in combinations(range(m), len(p.elements)):
            bits = sum([1 << c for c in combo])
            if bits not in marked and first([masks[c] for c in combo]) is not None:
                marked.add(bits)
    viol = _bitmap(marked, m)
    free = ~(viol | _strict(viol, m, True))
    best, top = max((k, layer & free) for k, layer in enumerate(_layers(m))
                    if layer & free)  # the empty family, unmarked, when best is 0
    best_bits = (top & -top).bit_length() - 1
    witness = SetFamily(n, tuple(masks[c] for c in range(m) if best_bits >> c & 1))
    return SearchOutcome(best, witness, 1 << m, mode, forbidden, True)


def max_free_layers(poset, n, mode="weak", coloring=None):
    """Largest k such that the k middle layers of [n] avoid the poset in the
    given mode, decided by verify_free; 0 when even a single layer contains
    a copy.  Fewer layers than the height of the poset hold no copy, so the
    scan starts there."""
    _class_setup(poset, mode, coloring)  # the mode's errors before any scan
    for h in range(max(1, height(poset)), n + 2):
        if not verify_free(middle_layers(n, h), [poset], mode, coloring)[0]:
            return h - 1
    return n + 1
