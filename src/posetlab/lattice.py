"""Whole-lattice bitmaps: chains and Y-type posets decided without a matcher.

A family over [n] is one int of 2^n bits, bit m set iff the mask m is a
member (_bitmap, built through a bytearray).  With C_i the bitmap of the
masks that hold element i + 1, (x << 2^i) & C_i moves each set of x without
that element to the set with it, and (x & C_i) >> 2^i moves it back, so n
shift-ORs give every mask strictly above or below a mask of x (_strict).
Counts of masks strictly above are thermometer bit-planes, "at least u"
for u = 0..t, summed over supersets one coordinate at a time (_above).

shape() reads a poset off Poset.up and Poset.down.  X, the elements
comparable to every element, is a chain; the rest, Y, must be an antichain
wholly above X, giving Y(|X|, |Y|), or wholly below it, giving Y'(|X|, |Y|).
With Y empty, chain(k) reads as Y(k - 1, 1).  A copy of Y'(h, s) is a copy
of Y(h, s) among the complements, whose bitmap is the reversed one (_flip).

Copies of Y(h, s).  B_j holds the masks with a chain of j members strictly
below; good holds those with at least s members strictly above, in
rank-preserving mode at least s of one size.  The family holds a copy iff a
member lies in B_(h-1) and in good.  An outside set S makes one through it iff
  - (top) S strictly contains a member T in B_(h-1) with at least s - 1
    members strictly above T, in rank-preserving mode of S's size; or
  - (chain) for some j in 1..h, S lies in B_(j-1) and below a chain of
    h - j members ending at a member in good; for j = h, S lies in good.
Y(h, 1) is a chain, on which the two modes agree, so it is read as weak.
"""
from functools import lru_cache, reduce
from operator import or_

from .family import _bits

_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def shape(poset):
    """(h, s, dual) when the poset is Y(h, s), or Y'(h, s) with dual True,
    for h >= 1; a chain of k >= 2 elements reads (k - 1, 1, False).  None
    for any other poset."""
    up, down = poset.up, poset.down
    every = (1 << len(up)) - 1
    xs = sum([1 << i for i in range(len(up)) if up[i] | down[i] == every])
    ys = every ^ xs
    h, s = xs.bit_count(), ys.bit_count()
    if not ys:
        return (h - 1, 1, False) if h >= 2 else None
    if not xs or any(up[i] & ys != 1 << i for i in _bits(ys)):
        return None
    if all(up[i] & ys == ys for i in _bits(xs)):
        return h, s, False
    if all(down[i] & ys == ys for i in _bits(xs)):
        return h, s, True
    return None


def route(fam, forbidden, mode, coloring):
    """The shapes of the forbidden posets when the maps decide for them all:
    weak or rank-preserving mode, no colouring, every poset a shape, and a
    bitmap no larger than the member tuple (len(fam) >= 2^n / 64); else None."""
    if mode not in ("weak", "rank_preserving") or coloring is not None or (
            len(fam) < 1 << fam.n >> 6):
        return None
    shapes = [shape(p) for p in forbidden]
    return None if None in shapes else shapes


@lru_cache(maxsize=2)
def _coordinates(n):
    """C_i for i < n: the bitmap of the masks over [n] holding element i + 1.
    Over [j + 1], the masks without j + 1 come first, then the same with it."""
    coords = []
    for j in range(n):
        coords = [c | c << (1 << j) for c in coords] + [(1 << (1 << j)) - 1 << (1 << j)]
    return coords


@lru_cache(maxsize=2)
def _layers(n):
    """L_k for k = 0..n: the bitmap of the k-sets of [n], built the same way."""
    layers = [1]
    for j in range(n):
        layers = [a | b << (1 << j) for a, b in zip(layers + [0], [0] + layers)]
    return layers


def _bitmap(masks, n):
    buf = bytearray(max(1, 1 << n >> 3))
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def _flip(x, n):
    """The bitmap of the complements: bit m moves to bit 2^n - 1 - m."""
    size = max(1, 1 << n >> 3)
    return int.from_bytes(x.to_bytes(size, "little").translate(_REVERSED), "big") >> (
        8 * size - (1 << n))


def _strict(x, n, up):
    """The masks strictly above (up) or strictly below some mask of x: each
    coordinate in turn moves x and every mask reached so far."""
    y = 0
    for i, c in enumerate(_coordinates(n)):
        z = x | y
        y |= (z << (1 << i)) & c if up else (z & c) >> (1 << i)
    return y


def _above(x, n, t):
    """[A_0, ..., A_t]: A_u holds the masks with at least u masks of x
    strictly above.  Planes P_u count the masks of x above or equal, one
    coordinate at a time: a + b >= v iff a >= u and b >= v - u for some u.
    A mask of x then has one fewer strictly above."""
    full = (1 << (1 << n)) - 1
    planes = [full, x] + [0] * t
    for i, c in enumerate(_coordinates(n)):
        moved = [full] + [(p & c) >> (1 << i) for p in planes[1:]]
        planes = [full] + [reduce(or_, [planes[u] & moved[v - u] for u in range(v + 1)])
                           for v in range(1, t + 2)]
    return [a ^ (x & (a ^ b)) for a, b in zip(planes, planes[1:])]


def _maps(bitmap, n, shapes, mode):
    """Per shape: its bitmap f (the complements' for Y'), h, s, dual,
    below = [B_0, ..., B_(h-1)], per_size and good.  per_size pairs a layer
    (every mask in weak mode) with the _above planes of f's members on it
    (every member in weak mode)."""
    for h, s, dual in shapes:
        f = _flip(bitmap, n) if dual else bitmap
        below = [(1 << (1 << n)) - 1]
        for _ in range(h - 1):
            below.append(_strict(f & below[-1], n, True))
        if mode == "rank_preserving" and s > 1:
            per_size = [(layer, _above(f & layer, n, s)) for layer in _layers(n) if f & layer]
        else:
            per_size = [(below[0], _above(f, n, s))]
        good = reduce(or_, [planes[s] for _, planes in per_size], 0)
        yield f, h, s, dual, below, per_size, good


def copies(fam, shapes, mode):
    """Per shape, whether the family holds a copy of it."""
    maps = _maps(_bitmap(fam.members, fam.n), fam.n, shapes, mode)
    return [bool(f & below[-1] & good) for f, _, _, _, below, _, good in maps]


def first_uncreated(fam, shapes, mode):
    """The first outside set in canonical order through which no shape gets
    a copy, or None; the family must be free of every shape."""
    n = fam.n
    made = bitmap = _bitmap(fam.members, n)
    for f, h, s, dual, below, per_size, good in _maps(bitmap, n, shapes, mode):
        base = f & below[-1]
        creates = below[-1] & good  # chain case, j = h
        for layer, planes in per_size:  # top case
            creates |= _strict(base & planes[s - 1], n, True) & layer
        chain = f & good
        for j in range(h - 2, -1, -1):  # chain case, j + 1 < h
            chain = _strict(chain, n, False)
            creates |= below[j] & chain
            chain &= f
        made |= _flip(creates, n) if dual else creates
    for layer in _layers(n):
        if rest := layer & ~made:
            return (rest & -rest).bit_length() - 1
    return None
