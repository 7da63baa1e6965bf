"""Exact counting over set families: LYM mass, chain weights, 2-chains.

Everything asserted is computed in exact integer or rational arithmetic;
floats only appear in the tail-window diagnostic, which is never part of
an identity.  The Lubell-type sums take one term per size group
(SetFamily.by_size), and 2-chains per size group F_j as popcounts of
family.inclusion_rows against every smaller member a: at most |a| big-int
ANDs each, not |F_j| subset tests, in one call per group.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

from .errors import InvalidParam, TooLargeForEnumeration
from .family import inclusion_rows

ENUMERATION_MAX_N = 8


def lubell_mass(fam):
    """Sum of 1/C(n, |F|) over the family, as an exact Fraction."""
    n = fam.n
    return sum((Fraction(len(g), math.comb(n, k)) for k, g in fam.by_size.items()), Fraction(0))


def pair_count(fam):
    """Sum of |F|! (n-|F|)! over members: the number of (member, maximal
    chain) incidences."""
    n = fam.n
    return sum(len(g) * math.factorial(k) * math.factorial(n - k) for k, g in fam.by_size.items())


def chain_weight_average(fam, via="formula"):
    """Average over all n! maximal chains of the chain weight
    sum(C(n,|F|) for F on the chain and in the family); equals |family|.

    via="formula" evaluates the incidence sum per size group; via="enumeration"
    walks every maximal chain (n <= 8) and is the independent route.
    """
    n = fam.n
    nfact = math.factorial(n)
    if via == "formula":
        total = sum(len(g) * math.comb(n, k) * math.factorial(k) * math.factorial(n - k)
                    for k, g in fam.by_size.items())
        return Fraction(total, nfact)
    if via == "enumeration":
        if n > ENUMERATION_MAX_N:
            raise TooLargeForEnumeration(f"n={n} exceeds {ENUMERATION_MAX_N}")
        weight = [math.comb(n, k) for k in range(n + 1)]
        members = fam.member_set
        total = 0
        if 0 in members:
            total += nfact * weight[0]
        for perm in permutations(range(n)):
            mask = 0
            size = 0
            for b in perm:
                mask |= 1 << b
                size += 1
                if mask in members:
                    total += weight[size]
        return Fraction(total, nfact)
    raise InvalidParam(f"unknown evaluation route {via!r}")


def count_2chains(fam):
    """Number of pairs A strictly contained in B within the family.  Two
    distinct sets of one size are never nested, so it counts, per size
    group, the members of smaller sizes below each of its members: one
    inclusion_rows call per group against every smaller member at once."""
    total, smaller = 0, []
    for k in sorted(fam.by_size):
        group = fam.by_size[k]
        if smaller:
            total += sum(map(int.bit_count, inclusion_rows(smaller, group)))
        smaller += group
    return total


def count_2chains_between(fam, i, j):
    """Number of 2-chains with |A| = i and |B| = j."""
    if i >= j:
        raise InvalidParam("need i < j")
    rows = inclusion_rows(fam.by_size.get(i, ()), fam.by_size.get(j, ()))
    return sum(row.bit_count() for row in rows)


def kleitman_lower_bound(m, n):
    """Least number of 2-chains any m-member family over [n] can have:
    max(0, (m - C(n, floor(n/2))) * n/2), rounded up to an integer.

    The expression can be a half-integer for odd n; since it bounds an
    integer count from below, the ceiling is still a valid bound.
    """
    return max(0, -(-(m - math.comb(n, n // 2)) * n // 2))


def tail_count(n, log_base=math.e):
    """Number of subsets of [n] whose size falls outside
    (n/2 - 2*sqrt(n log n), n/2 + 2*sqrt(n log n)).

    The window test compares the exact integer (2k - n)^2 against
    16 n log n, so no square roots are taken; the log base defaults to
    natural log and is a parameter.
    """
    if n < 2:
        raise InvalidParam("need n >= 2")
    if log_base <= 1:
        raise InvalidParam("log base must exceed 1")
    threshold = 16 * n * math.log(n, log_base)
    # the test is symmetric under k <-> n-k and never holds at k = n/2, so
    # walk the lower tail with the binomial recurrence and double it
    total_low = 0
    binom = 1
    k = 0
    while 2 * k < n and (2 * k - n) ** 2 > threshold:
        total_low += binom
        binom = binom * (n - k) // (k + 1)
        k += 1
    return 2 * total_low


def tail_ratio_diagnostic(n, log_base=math.e):
    """Tail count next to the scale C(n, n/2)/n^(3/2); ratio is reported,
    never asserted."""
    count = tail_count(n, log_base)
    central = math.comb(n, n // 2)
    ratio = float(Fraction(count, central)) * n ** 1.5
    return {"n": n, "tailCount": count, "ratioToScale": ratio}
