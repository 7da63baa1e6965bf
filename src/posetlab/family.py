"""Set families over the ground set [n] = {1, ..., n}.

Members are bitmasks (bit i-1 set iff element i is in the set), the ground
set is capped at n = 24, and the member order is always canonical:
ascending by (popcount, numeric value).  That fixes iteration order
everywhere and makes serialized output bit-exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

from .errors import ElementOutOfRange, InvalidParam, OddN, ParseError

MAX_GROUND = 24


def _check_ground(n):
    """Raise InvalidParam unless 1 <= n <= MAX_GROUND; every construction
    reaches this before it enumerates any set."""
    if not 1 <= n <= MAX_GROUND:
        raise InvalidParam(f"ground set size must be in [1, {MAX_GROUND}]")


def canonical_key(mask):
    return (bin(mask).count("1"), mask)


def canonical_masks(n):
    """Every mask over [n] in canonical order, one size class at a time in
    numeric order (Gosper's hack), without a list of all 2^n masks."""
    yield 0
    limit = 1 << n
    for k in range(1, n + 1):
        m = (1 << k) - 1
        while m < limit:
            yield m
            low = m & -m
            ripple = m + low
            m = ripple | ((m ^ ripple) >> 2) // low


def mask_of(elements):
    """Bitmask of a collection of 1-based elements."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements_of(mask):
    """Sorted 1-based element list of a bitmask."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


@dataclass(frozen=True)
class SetFamily:
    """Immutable family of distinct subsets of [n], canonically ordered."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        _check_ground(self.n)
        full = (1 << self.n) - 1
        for m in self.members:
            if m < 0 or m > full:
                raise ElementOutOfRange(f"mask {m} does not fit in [{self.n}]")
        ordered = tuple(sorted(set(self.members), key=canonical_key))
        object.__setattr__(self, "members", ordered)

    @classmethod
    def from_sets(cls, n, sets):
        return cls(n, tuple(mask_of(s) for s in sets))

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, mask):
        return mask in self.member_set

    @cached_property
    def member_set(self):
        return frozenset(self.members)

    @cached_property
    def by_size(self):
        """Members grouped by popcount; values keep canonical (numeric) order."""
        groups = {}
        for m in self.members:
            groups.setdefault(bin(m).count("1"), []).append(m)
        return {k: tuple(v) for k, v in groups.items()}


def layer_profile(fam):
    """Counts of members per size, as a list indexed 0..n."""
    profile = [0] * (fam.n + 1)
    for m in fam.members:
        profile[bin(m).count("1")] += 1
    return profile


def full_layer(n, k):
    """All k-subsets of [n] as masks, ascending."""
    _check_ground(n)
    if not 0 <= k <= n:
        raise InvalidParam(f"layer index {k} outside 0..{n}")
    return sorted(mask_of(c) for c in combinations(range(1, n + 1), k))


def sigma(n, h):
    """Total size of the h middle layers of the Boolean lattice of order n."""
    if not 1 <= h <= n + 1:
        raise InvalidParam("need 1 <= h <= n+1")
    base = (n - h) // 2
    return sum(comb(n, base + i) for i in range(1, h + 1))


def middle_layers(n, h):
    """Union of the h middle layers; |result| = sigma(n, h)."""
    if not 1 <= h <= n + 1:
        raise InvalidParam("need 1 <= h <= n+1")
    base = (n - h) // 2
    members = []
    for i in range(1, h + 1):
        members += full_layer(n, base + i)
    return SetFamily(n, tuple(members))


def f23_construction(n):
    """Half-sized sets avoiding {n-1, n} plus (n/2+1)-sets containing both.

    Built by direct enumeration of the two membership conditions; n must be
    even and at least 4.  Strictly larger than the middle layer.
    """
    _check_ground(n)
    if n % 2 == 1:
        raise OddN("construction needs even n")
    if n < 4:
        raise InvalidParam("construction needs n >= 4")
    half = n // 2
    pins = mask_of([n - 1, n])
    members = []
    for m in range(1 << n):
        pc = bin(m).count("1")
        if pc == half + 1 and m & pins == pins:
            members.append(m)
        elif pc == half and bin(m & pins).count("1") <= 1:
            members.append(m)
    return SetFamily(n, tuple(members))


def f23_formula_size(n):
    """Closed-form size candidate for :func:`f23_construction`.

    Disagrees with direct enumeration (e.g. 17 vs 22 at n = 6); retained so
    reports can flag the difference rather than silently pick one.
    """
    if n % 2 == 1:
        raise OddN("construction needs even n")
    half = n // 2
    return comb(n - 2, half + 1) + comb(n, half) - comb(n - 2, half - 2)


def lubell_tail_family(n, h):
    """Levels 0..h-2 together with levels n-h+2..n."""
    if h < 3:
        raise InvalidParam("tail family needs h >= 3")
    if n < 2 * h:
        raise InvalidParam("tail family needs n >= 2h")
    members = []
    for k in list(range(0, h - 1)) + list(range(n - h + 2, n + 1)):
        members += full_layer(n, k)
    return SetFamily(n, tuple(members))


# ---------------------------------------------------------------------------
# File format: first line "n=<int>", then one member per line as a
# comma-separated ascending element list; "-" denotes the empty set.

def parse_family(text):
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input, expected a n=<int> header", 1)
    header = lines[0].strip()
    if not header.startswith("n=") or not header[2:].strip().isdigit():
        raise ParseError(f"expected n=<int> header, got {header!r}", 1)
    n = int(header[2:])
    _check_ground(n)
    members = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line == "-":
            members.append(0)
            continue
        elems = []
        for tok in line.split(","):
            tok = tok.strip()
            if not tok.isdigit():
                raise ParseError(f"bad element {tok!r}", lineno)
            elems.append(int(tok))
        for e in elems:
            if not 1 <= e <= n:
                raise ElementOutOfRange(f"element {e} outside [1..{n}]", lineno)
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ParseError("elements must be strictly ascending", lineno)
        members.append(mask_of(elems))
    return SetFamily(n, tuple(members))


def serialize_family(fam):
    lines = [f"n={fam.n}"]
    for m in fam.members:
        lines.append(",".join(str(e) for e in elements_of(m)) if m else "-")
    return "\n".join(lines) + "\n"
