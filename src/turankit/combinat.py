"""Exact rational scalars shared by every bound computation.

Every reported quantity is a `fractions.Fraction`; no floating point enters
any bound or certificate path.  Each is computed from Python integers and
built as one reduced `Fraction` at the end: x(m) has the integer pair
`_x_parts`, which `bounds` and `relations` multiply out themselves, and
`vertex_threshold` is one quotient.  The only irrational number anywhere
downstream is the e^{(k-r)/k} comparison value of `bounds.sandwich_table`,
whose order against the other two values is proved without it; it enters
only as an explicitly labeled decimal rendering of `decimal`'s correctly
rounded exp.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable

from . import _NAMES

__all__ = _NAMES["combinat"].split()


def binomial(n: int, j: int) -> int:
    """C(n, j), with 0 for j outside [0, n]; n itself must be nonnegative."""
    if n < 0:
        raise ValueError(f"binomial: need n >= 0, got n={n}")
    if j < 0 or j > n:
        return 0
    return math.comb(n, j)


def multinomial(n: int, parts: Iterable[int]) -> int:
    """Multinomial coefficient n! / (c1! c2! ...); parts must sum to n."""
    parts = tuple(parts)
    if any(c < 0 for c in parts) or sum(parts) != n:
        raise ValueError("multinomial: parts must be nonnegative and sum to n")
    return math.factorial(n) // math.prod(map(math.factorial, parts))


def x_ratio(k: int, m: int, r: int) -> Fraction:
    """The product term 1 - C(m-1, k-1) / C(r-1, k-1).

    Defined on k-1 <= m <= r.  Equals 1 at m = k-1 (the binomial in the
    numerator is empty), 0 at m = r, and is strictly decreasing in between.
    A product of these terms over m = k..g is the asymptotic upper bound for
    the density of complete k-uniform g-sets in hosts with no complete r-set.
    """
    if k < 2 or r < k:
        raise ValueError(f"x_ratio: need 2 <= k <= r, got k={k}, r={r}")
    if m < k - 1 or m > r:
        raise ValueError(f"x_ratio: m must lie in [{k - 1}, {r}], got m={m}")
    return Fraction(*_x_parts(k, m, r))


def _x_parts(k: int, m: int, r: int) -> tuple[int, int]:
    """x(m) = `x_ratio(k, m, r)` as the unreduced integer pair
    (C(r-1,k-1) - C(m-1,k-1), C(r-1,k-1)); unchecked, needs
    k-1 <= m <= r."""
    top = math.comb(r - 1, k - 1)
    return top - math.comb(m - 1, k - 1), top


class EpsilonMode(Enum):
    """Choice of the uniform slack constant in the finite-n machinery.

    The three-term density inequalities carry a term 1/((n-m) x_ratio(k,m,r))
    that the bound construction replaces by a single constant for every m in
    [k, r-1].  Two conventions are exposed:

    * LITERAL:   (r-k)/((n-r+1)(k-1)).  This is the constant whose geometric
      factor 1/(1 - eps (r-1)(r-k)/(k-1)) coincides exactly with the
      closed-form finite-n factor reported by `bounds.upper_bound`.
    * CORRECTED: (r-1)/((n-r+1)(k-1)) = 1/((n-r+1) x_ratio(k, r-1, r)), the
      maximum of the replaced terms, hence the smallest constant that keeps
      every relaxed row non-positive.

    LITERAL undershoots the m = r-1 term for every k >= 2, so relaxed rows
    built from it may go positive on specific hosts; `relations` reports such
    cases as diagnostics.  Reports always state which mode produced them.
    """

    LITERAL = "literal"
    CORRECTED = "corrected"


def _eps_top(k: int, r: int, mode: EpsilonMode) -> int:
    """The mode's slack constant times (n-r+1)(k-1): r-k in LITERAL mode,
    r-1 in CORRECTED mode; unchecked."""
    return r - k if mode is EpsilonMode.LITERAL else r - 1


def epsilon_value(k: int, r: int, n: int, mode: EpsilonMode = EpsilonMode.LITERAL) -> Fraction:
    """The slack constant of the selected mode; requires n > r."""
    if k < 2 or r <= k:
        raise ValueError(f"epsilon_value: need 2 <= k < r, got k={k}, r={r}")
    if n <= r:
        raise ValueError(f"epsilon_value: need n > r, got n={n}, r={r}")
    return Fraction(_eps_top(k, r, mode), (n - r + 1) * (k - 1))


def epsilon_threshold(k: int, r: int) -> Fraction:
    """Positivity threshold (k-1)/((r-1)(r-k)) for the shifted system.

    For eps strictly below this value the shifted tridiagonal system is
    invertible with positive determinant and an entrywise-positive inverse.
    """
    if k < 2 or r <= k:
        raise ValueError(f"epsilon_threshold: need 2 <= k < r, got k={k}, r={r}")
    return Fraction(k - 1, (r - 1) * (r - k))


def vertex_threshold(k: int, r: int, mode: EpsilonMode = EpsilonMode.LITERAL) -> Fraction:
    """Smallest host size bound: n must exceed this for `upper_bound`.

    Equivalent to epsilon_value(k, r, n, mode) < epsilon_threshold(k, r).
    """
    if k < 2 or r <= k:
        raise ValueError(f"vertex_threshold: need 2 <= k < r, got k={k}, r={r}")
    # (r-1) (1 + top (r-k) / (k-1)^2) with top = `_eps_top`
    square = (k - 1) ** 2
    return Fraction((r - 1) * (square + _eps_top(k, r, mode) * (r - k)), square)


def decimal_string(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering rounded to `digits` places.  Display only: the
    result is an approximation and must never feed back into comparisons."""
    scale = 10**digits
    scaled = round(Fraction(value) * scale)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), scale)
    return f"{sign}{whole}.{frac:0{digits}d}"
