"""Exact extremal computations over 2^[n] at desk scale.

la_exact runs include/exclude branch-and-bound over all 2^n candidate sets
in canonical order (include branch first).  Feasibility pruning works one
set at a time and in place: the included sets, and the same sets grouped
by size, are push/pop lists that embed._copy_through tests a candidate s
on, anchored at s; saturation_check probes outside sets the same way, with
no family built per probe.  The upper bound is the trivial cardinality
bound, tightened when the forbidden pair is a Y poset together with its
dual: once the included family has a chain of h sets ending at T, at most
s-1 further supersets of T fit (per size class in rank-preserving mode, in
total in weak mode).  The remaining supersets of T are counted by
bisecting per-T lists of candidate indices.

The branch routine keeps pending branches on an explicit stack, not the
call stack, so exclude chains 2^n deep stay clear of the recursion limit
for every n up to MAX_SEARCH_N.  It walks the whole tree in one process:
the explored-node sequence, value and witness are all deterministic.
"""
from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .embed import (
    _class_setup,
    _copy_through,
    _Pool,
    ensure_mode_applicable,
    find_copy,
    is_copy_image,
)
from .errors import InvalidParam, NotFree
from .family import SetFamily, canonical_masks, middle_layers
from .poset import height, is_isomorphic, y_poset, y_prime_poset

MAX_SEARCH_N = 12
MAX_EXHAUSTIVE_N = 4
MAX_SYMMETRY_N = 7


@dataclass
class SearchConfig:
    budget_ms: int | None = None
    symmetry_pruning: bool = False


@dataclass
class SearchOutcome:
    value: int
    witness: SetFamily
    nodes_explored: int
    mode: str
    forbidden: tuple
    exact: bool


@dataclass
class SaturationResult:
    saturated: bool
    counterexample: int | None = None


def _detect_y_pair(forbidden):
    """(h, s) when the forbidden set is exactly a Y poset and its dual."""
    if len(forbidden) != 2:
        return None
    for p, q in ((forbidden[0], forbidden[1]), (forbidden[1], forbidden[0])):
        h = height(p) - 1
        s = len(p.elements) - h
        if h < 1 or s < 1 or len(q.elements) != h + s:
            continue
        if is_isomorphic(p, y_poset(h, s)) and is_isomorphic(q, y_prime_poset(h, s)):
            return h, s
    return None


@lru_cache(maxsize=4)
def _perm_tables(n):
    """mask -> permuted mask, one table per coordinate permutation of [n]."""
    tables = []
    for perm in permutations(range(n)):
        t = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = (m & -m).bit_length() - 1
            t[m] = t[m & (m - 1)] | 1 << perm[low]
        tables.append(t)
    return tuple(tables)


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
        self.tables = _perm_tables(n) if self.symmetry else None
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
            if len(inc) + (total - i) < required:
                continue
            if self.cap and self.h_tops and len(inc) + self._capped_remaining(i) < required:
                continue
            if i == total:
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
            rem_lv = {}
            for lv, idx in self._supersets(t).items():
                cnt = len(idx) - bisect_left(idx, i)
                if cnt:
                    rem_lv[lv] = cnt
            if not rem_lv:
                continue
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
        cur = tuple(self.pool.members)
        cur_key = tuple(sorted((bin(m).count("1"), m) for m in cur))
        for table in self.tables:
            mapped = tuple(sorted((bin(table[m]).count("1"), table[m]) for m in cur))
            if mapped < cur_key:
                return False
        return True


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
    copy image (via the permutation matcher), close upward over all 2^(2^n)
    families, and read off the largest unmarked one."""
    if not 1 <= n <= MAX_EXHAUSTIVE_N:
        raise InvalidParam(f"exhaustive enumeration supports n <= {MAX_EXHAUSTIVE_N}")
    forbidden = tuple(forbidden)
    masks = list(canonical_masks(n))
    m = len(masks)
    direct = bytearray(1 << m)
    for p in forbidden:
        ensure_mode_applicable(p, mode, coloring)
        k = len(p.elements)
        if k > m:
            continue
        for combo in combinations(range(m), k):
            bits = 0
            for c in combo:
                bits |= 1 << c
            if direct[bits]:
                continue
            if is_copy_image([masks[c] for c in combo], p, mode, coloring):
                direct[bits] = 1
    viol = bytearray(1 << m)
    for fam_bits in range(1, 1 << m):
        if direct[fam_bits]:
            viol[fam_bits] = 1
            continue
        rest = fam_bits
        while rest:
            low = rest & -rest
            if viol[fam_bits ^ low]:
                viol[fam_bits] = 1
                break
            rest ^= low
    best, best_bits = 0, 0
    for fam_bits in range(1 << m):
        if not viol[fam_bits]:
            pc = bin(fam_bits).count("1")
            if pc > best:
                best, best_bits = pc, fam_bits
    witness = SetFamily(n, tuple(masks[c] for c in range(m) if best_bits >> c & 1))
    return SearchOutcome(best, witness, 1 << m, mode, forbidden, True)


def verify_free(fam, forbidden, mode="weak", coloring=None):
    """(True, None) when no forbidden poset has a copy, else (False, witness)."""
    for p in forbidden:
        witness = find_copy(fam, p, mode, coloring)
        if witness is not None:
            return False, witness
    return True, None


def saturation_check(fam, forbidden, mode="weak", coloring=None):
    """Is the family free and does every outside set create a copy?

    Raises NotFree when the input already contains a forbidden copy; the
    first counterexample in canonical order is reported otherwise.
    """
    free, witness = verify_free(fam, forbidden, mode, coloring)
    if not free:
        raise NotFree(witness)
    tables = [(p, _class_setup(p, mode, coloring)) for p in forbidden]
    pool = _Pool.copy_of(fam)
    for s in canonical_masks(fam.n):
        if s not in fam and all(
            _copy_through(pool, p, mode, s, classes) is None for p, classes in tables
        ):
            return SaturationResult(False, s)
    return SaturationResult(True, None)


def max_free_layers(poset, n, mode="weak", coloring=None):
    """Largest k such that the k middle layers of [n] avoid the poset in the
    given mode; 0 when even a single layer contains a copy.  Fewer layers
    than the height of the poset hold no copy, so the scan starts there."""
    ensure_mode_applicable(poset, mode, coloring)
    for h in range(max(1, height(poset)), n + 2):
        if find_copy(middle_layers(n, h), poset, mode, coloring) is not None:
            return h - 1
    return n + 1
