"""Set families over the ground set [n] = {1, ..., n}.

Members are bitmasks (bit i-1 set iff element i is in the set), the ground
set is capped at n = 24, and the member order is always canonical:
ascending by (popcount, numeric value).  That fixes iteration order
everywhere and makes serialized output bit-exact.  Every construction
walks the layers it uses once each, by Gosper's step (_layer).
"""
from __future__ import annotations

from functools import cache, cached_property, reduce
from math import comb

from .errors import ElementOutOfRange, InvalidParam, OddN, ParseError
from .value import Value

MAX_GROUND = 24


def _check_ground(n):
    """Raise InvalidParam unless 1 <= n <= MAX_GROUND; every construction
    reaches this before it enumerates any set."""
    if not 1 <= n <= MAX_GROUND:
        raise InvalidParam(f"ground set size must be in [1, {MAX_GROUND}]")


def canonical_key(mask):
    return (mask.bit_count(), mask)


def _layer(n, k):
    """The k-subsets of [n] as masks in numeric order, by Gosper's step
    from each one to the next larger mask of the same popcount."""
    if k == 0:
        yield 0
        return
    limit = 1 << n
    m = (1 << k) - 1
    while m < limit:
        yield m
        low = m & -m
        ripple = m + low
        m = ripple | ((m ^ ripple) >> 2) // low


def canonical_masks(n):
    """Every mask over [n] in canonical order: layers 0..n in turn, each
    walked once by Gosper's step, without a list of all 2^n masks."""
    for k in range(n + 1):
        yield from _layer(n, k)


def mask_of(elements):
    """Bitmask of a collection of 1-based elements."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def _checked_mask(elements, n, lineno=None):
    """mask_of(elements); ElementOutOfRange unless each is an int in 1..n."""
    for e in elements:
        if not (isinstance(e, int) and 1 <= e <= n):
            raise ElementOutOfRange(f"element {e!r} outside [1..{n}]", lineno)
    return mask_of(elements)


@cache
def _byte_text():
    """Row k, entry v: byte k's elements, each with a comma, when it reads v."""
    return [reduce(lambda row, e: row + [f"{t}{e}," for t in row], range(k + 1, k + 9), [""])
            for k in range(0, MAX_GROUND, 8)]


def _elements_text(mask):
    low, mid, high = _byte_text()
    return (low[mask & 255] + mid[mask >> 8 & 255] + high[mask >> 16])[:-1]


def _bits(mask):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def elements_of(mask):
    """Sorted 1-based element list of a bitmask over [MAX_GROUND]."""
    if not 0 <= mask < 1 << MAX_GROUND:
        raise ElementOutOfRange(f"mask {mask} does not fit in [{MAX_GROUND}]")
    return [int(e) for e in _elements_text(mask).split(",") if e]


class SetFamily(Value):
    """Immutable family of distinct subsets of [n], canonically ordered."""

    _fields = ("n", "members")  # int, tuple[int, ...]

    def __post_init__(self):
        _check_ground(self.n)
        n, members = self.n, tuple(self.members)
        full = (1 << n) - 1
        for m in members:
            if m < 0 or m > full:
                raise ElementOutOfRange(f"mask {m} does not fit in [{n}]")
        keys = [m.bit_count() << n | m for m in members]  # canonical order, as ints
        if not all(map(int.__lt__, keys, keys[1:])):  # not already strictly ascending
            members = tuple(sorted(set(members), key=canonical_key))
        object.__setattr__(self, "members", members)

    @classmethod
    def from_sets(cls, n, sets):
        """The family of the given element collections over [n]."""
        _check_ground(n)
        return cls(n, tuple(_checked_mask(tuple(s), n) for s in sets))

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
            groups.setdefault(m.bit_count(), []).append(m)
        return {k: tuple(v) for k, v in groups.items()}


def layer_profile(fam):
    """Counts of members per size, as a list indexed 0..n."""
    profile = [0] * (fam.n + 1)
    for m in fam.members:
        profile[m.bit_count()] += 1
    return profile


def inclusion_rows(lower, upper):
    """Yield, for each mask a of lower, the int whose bit r is set iff a is a
    subset of upper[r]: the AND of its elements' holder rows, every width-th
    digit of upper in binary, at |a| big-int ANDs of |upper| bits per row."""
    width = max(upper, default=0).bit_length()
    text = "".join(map(f"{{:0{width}b}}".format, reversed(upper)))
    holders = [int(text[e::width], 2) for e in range(width - 1, -1, -1)]
    everyone = (1 << len(upper)) - 1
    for a in lower:
        row = 0 if a >> width else everyone
        while a and row:
            low = a & -a
            row &= holders[low.bit_length() - 1]
            a ^= low
        yield row


def full_layer(n, k):
    """All k-subsets of [n] as masks, ascending."""
    _check_ground(n)
    if not 0 <= k <= n:
        raise InvalidParam(f"layer index {k} outside 0..{n}")
    return list(_layer(n, k))


def _middle_sizes(n, h):
    """The sizes of the h middle layers of [n]."""
    if not 1 <= h <= n + 1:
        raise InvalidParam("need 1 <= h <= n+1")
    base = (n - h) // 2
    return range(base + 1, base + h + 1)


def sigma(n, h):
    """Total size of the h middle layers of the Boolean lattice of order n."""
    return sum(comb(n, k) for k in _middle_sizes(n, h))


def middle_layers(n, h):
    """Union of the h middle layers; |result| = sigma(n, h)."""
    return SetFamily(n, tuple(m for k in _middle_sizes(n, h) for m in full_layer(n, k)))


def f23_construction(n):
    """Half-sized sets avoiding {n-1, n} plus (n/2+1)-sets containing both.

    Built by filtering those two layers on the membership conditions; n
    must be even and at least 4.  Strictly larger than the middle layer.
    """
    _check_ground(n)
    if n % 2 == 1:
        raise OddN("construction needs even n")
    if n < 4:
        raise InvalidParam("construction needs n >= 4")
    half = n // 2
    pins = mask_of([n - 1, n])
    members = [m for m in _layer(n, half) if m & pins != pins]
    members += [m for m in _layer(n, half + 1) if m & pins == pins]
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
    sizes = [*range(h - 1), *range(n - h + 2, n + 1)]
    return SetFamily(n, tuple(m for k in sizes for m in full_layer(n, k)))


# ---------------------------------------------------------------------------
# File format: first line "n=<int>", then one member per line as a
# comma-separated ascending element list; "-" denotes the empty set.

def _decimal(tok, lineno):
    """tok as an int, or None unless it is ASCII digits only (str.isdigit
    also accepts '²' and '٣'); ParseError on the line when it has more
    digits than int() reads."""
    if not (tok.isascii() and tok.isdigit()):
        return None
    try:
        return int(tok)
    except ValueError as exc:  # past the interpreter's integer string limit
        raise ParseError(f"{len(tok)}-digit number is too long", lineno) from exc


def parse_family(text):
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input, expected a n=<int> header", 1)
    header = lines[0].strip()
    n = _decimal(header[2:].strip(), 1) if header.startswith("n=") else None
    if n is None:
        raise ParseError(f"expected n=<int> header, got {header!r}", 1)
    _check_ground(n)
    bit = {str(e): 1 << e - 1 for e in range(1, n + 1)}
    bit["-"] = 0
    bit_of = bit.__getitem__
    members = []
    for lineno, raw in enumerate(lines[1:], start=2):
        # a line as serialize_family writes it: each token's bit, then the
        # line must be the mask's own text; anything else takes _parse_line
        try:
            mask = sum(map(bit_of, raw.split(",")))
        except KeyError:
            mask = None
        if mask is None or raw != (_elements_text(mask) or "-"):
            mask = _parse_line(raw, n, lineno)
            if mask is None:
                continue
        members.append(mask)
    return SetFamily(n, tuple(members))


def _parse_line(raw, n, lineno):
    """The member a family-file line names, None for a blank line."""
    line = raw.strip()
    if not line:
        return None
    if line == "-":
        return 0
    elems = []
    for tok in line.split(","):
        e = _decimal(tok.strip(), lineno)
        if e is None:
            raise ParseError(f"bad element {tok.strip()!r}", lineno)
        elems.append(e)
    mask = _checked_mask(elems, n, lineno)
    if any(a >= b for a, b in zip(elems, elems[1:])):
        raise ParseError("elements must be strictly ascending", lineno)
    return mask


def serialize_family(fam):
    lines = [f"n={fam.n}"]
    for m in fam.members:
        lines.append(_elements_text(m) or "-")
    return "\n".join(lines) + "\n"
