"""Clique-density bounds through the associated tridiagonal system.

The finite-n upper bound for the density of complete g-sets in k-graphs
with no complete r-set comes from combining three-term density inequalities
with nonnegative multipliers.  Finding the multipliers is a linear solve
against a tridiagonal matrix indexed by m in [k, r-1]; its determinant
recursions have closed forms (the trailing principal minors are all 1, the
determinant is 1) that make every inverse entry an explicit product.

Everything here is exact, and the solve runs in Python integers.  The
records are NamedTuples, and a `TridiagonalSystem` computes its integer rows
when it is built: row i scaled by the lcm R_i of its entry denominators
(`build_system` caches the system, so the rows are kept per (k, r)).
`recurrences(sys, eps)` is the one record of the shift: at eps = p/q the
system becomes the integer matrix M = q (scaled rows) - p diag(R), one
integer recursion gives M's leading minors, the trailing minors are the same
recursion on the reversed system, and the two must agree on the determinant.
`recurrences` keeps its last few records (`_shifted`, with tuple fields) per
system and per eps's integers (p, q), so no lookup hashes a `Fraction`, and
`solve_delta` and `inverse_matrix` at one eps share one record (`turankit
solve` reads its tables from `recurrences` and its column through
`solve_delta`, both from one record).  Both build each column of the inverse
as integer numerators over det(M), in one pass outward from the diagonal
carrying the off-diagonal product, so every entry is one `Fraction`.  The
`Fraction` tables theta, phi and zeta are computed only when read: the
integer minors divided by the prefix and suffix products of the row scales.  Every
multiplier vector is checked against the integer equations M N = det(M) q
R_g e_g, row by row, on every call; with a nonzero determinant that solution
is unique, so the check is independent of the minor formula and costs
O(dimension).

The reports are integer arithmetic as well, with one reduced `Fraction` per
reported value.  The limit prod_m x(m) is one quotient of integer products
(`combinat._x_parts`); `upper_bound` tests n against the vertex threshold
multiplied out in integers (the threshold `Fraction` is built only for the
error message), its geometric factor is an integer pair, its LITERAL closed
form is checked against that pair by one cross-multiplication, and the
finite bound is built from the two pairs at once.  `sandwich_table` doubles the series length, orders its three values
and takes the midpoint on the integer bracket of `combinat._exp_bracket`,
and `partite_lower_bound` compares its corrected sum with `direct` by
cross-multiplication.  Neither depends on a host, so each is kept per key,
(k, r) and (k, g, l), and its cross-check runs once per key; a check that
raises caches nothing.  `upper_bound` reads the partite record's `direct`.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from . import _NAMES
from .combinat import (
    EpsilonMode,
    _eps_top,
    _exp_bracket,
    _x_parts,
    binomial,
    decimal_string,
    multinomial,
    vertex_threshold,
    x_ratio,
)

__all__ = _NAMES["bounds"].split()


class TridiagonalSystem:
    """The bound system for parameters (k, r), indexed by m in [k, r-1].

    diag[i]  = entry (m, m)   = 2 - (k-1)/(m x_ratio(k, m, r)),  m = k+i
    upper[i] = entry (m, m+1) = -x_ratio(k, m+1, r)
    lower[i] = entry (m+1, m) = -(1 - (k-1)/m) / x_ratio(k, m, r)

    Off-diagonal entries are strictly negative on the whole range, which is
    what forces the inverse to be entrywise positive.  The solvers read the
    entries of the system they are given through its integer rows, built
    with it: rows = (scale, diag, up, down), row i multiplied by scale[i],
    the lcm of that row's entry denominators, so every entry is an integer;
    diag[i] = scale[i] diag[i], up[i] = -scale[i] upper[i] and down[i] =
    -scale[i+1] lower[i].
    """

    __slots__ = ("k", "r", "diag", "upper", "lower", "rows")

    def __init__(self, k: int, r: int, diag, upper, lower) -> None:
        self.k, self.r, self.diag, self.upper, self.lower = k, r, diag, upper, lower
        d = r - k
        rows = []
        for i in range(d):
            left, mid = lower[i - 1] if i else 0, diag[i]
            right = upper[i] if i + 1 < d else 0
            scale = math.lcm(left.denominator, mid.denominator, right.denominator)
            rows.append((scale, int(scale * left), int(scale * mid), int(scale * right)))
        scale, left, mid, right = zip(*rows)
        self.rows = scale, mid, tuple(-c for c in right[:-1]), tuple(-a for a in left[1:])

    @property
    def dim(self) -> int:
        return self.r - self.k

    @property
    def ms(self) -> tuple[int, ...]:
        return tuple(range(self.k, self.r))


@lru_cache(maxsize=256)
def build_system(k: int, r: int) -> TridiagonalSystem:
    """Construct the (r-k)-dimensional tridiagonal system for (k, r)."""
    if k < 2 or r <= k:
        raise ValueError(f"build_system: need 2 <= k < r, got k={k}, r={r}")
    ms = range(k, r)
    diag = tuple(2 - Fraction(k - 1, 1) / (m * x_ratio(k, m, r)) for m in ms)
    upper = tuple(-x_ratio(k, m + 1, r) for m in range(k, r - 1))
    lower = tuple(
        -(1 - Fraction(k - 1, m)) / x_ratio(k, m, r) for m in range(k, r - 1)
    )
    return TridiagonalSystem(k, r, diag, upper, lower)


def _minors(diag: tuple[int, ...], offs: list[int]) -> list[int]:
    """Leading principal minors 1, D_1, .., D_d of the tridiagonal matrix
    with diagonal `diag` and off-diagonal products offs[i] = upper[i] *
    lower[i]: D_i = diag[i-1] D_{i-1} - offs[i-2] D_{i-2}."""
    out = [0, 1]
    for i, a in enumerate(diag):
        out.append(a * out[-1] - (offs[i - 1] * out[-2] if i else 0))
    return out[1:]


class RecurrenceTables(NamedTuple):
    """The shifted system A - eps I at eps = p/q as the integer matrix
    M = diag(scale) (A - eps I) = q (R A) - p diag(R), where R holds the row
    scales of `TridiagonalSystem.rows` and scale = q R, with M's minors:
    lead[j] over rows 0..j-1 (lead[0] = 1) and trail[j] over rows j..d-1
    (trail[d] = 1), so det(M) = lead[d] = trail[0].  up and down hold M's
    off-diagonals negated.

    The `Fraction` tables, computed on each read, are the shifted system's
    own minors: M's divided by the prefix (suffix) products of the scales.
    theta[j] = theta(k-1+j), the leading principal minor over rows/columns
    {k..k-1+j}; theta[0] is the seed theta(k-1) = 1.  phi[j] = phi(k+j), the
    trailing minor over {k+j..r-1}, padded with the seeds phi(r) = 1 and
    phi(r+1) = 0.  zeta[j] = phi(m+1) - phi(m) for m = k+j, with the seed
    zeta(r) = 0.  The determinant equals both theta(r-1) and phi(k).
    """

    k: int
    r: int
    epsilon: Fraction
    scale: tuple[int, ...]
    diag: tuple[int, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]
    lead: tuple[int, ...]
    trail: tuple[int, ...]

    @property
    def theta(self) -> tuple[Fraction, ...]:  # m = k-1 .. r-1
        prefix = itertools.accumulate(self.scale, operator.mul, initial=1)
        return tuple(Fraction(t, p) for t, p in zip(self.lead, prefix))

    @property
    def phi(self) -> tuple[Fraction, ...]:  # m = k .. r+1
        suffix = itertools.accumulate(reversed(self.scale), operator.mul, initial=1)
        phi = [Fraction(f, s) for f, s in zip(reversed(self.trail), suffix)]
        return tuple(phi[::-1]) + (Fraction(0),)

    @property
    def zeta(self) -> tuple[Fraction, ...]:  # m = k .. r
        phi = self.phi
        return tuple(phi[j + 1] - phi[j] for j in range(len(self.diag))) + (Fraction(0),)

    @property
    def determinant(self) -> Fraction:  # theta(r-1)
        return Fraction(self.lead[-1], math.prod(self.scale))

    def nonpositive_entries(self) -> list[tuple[str, int]]:
        """The (table, m) pairs with nonpositive values, read off the signs of
        lead and trail (the scale products are positive), without the phi(r+1)
        = 0 seed; nonempty tables signal that epsilon sits at or beyond the
        positivity threshold."""
        return [("theta", self.k - 1 + j) for j, v in enumerate(self.lead) if v <= 0] + [
            ("phi", self.k + j) for j, v in enumerate(self.trail) if v <= 0
        ]


def recurrences(sys: TridiagonalSystem, eps: Fraction = Fraction(0)) -> RecurrenceTables:
    """Shift the integer rows of `sys` by eps in O(dimension), run the minor
    recursion forward and on the reversed system, and cross-check the
    determinant.  Large eps may drive minors nonpositive; that is reported
    through `nonpositive_entries`, not an error.  The record is `_shifted`'s,
    kept per (sys, p, q) for eps = p/q; its fields are tuples, so the callers
    that share it cannot change it."""
    if type(eps) is not Fraction:
        eps = Fraction(eps)
    if eps.numerator < 0:
        raise ValueError("recurrences: eps must be nonnegative")
    return _shifted(sys, eps.numerator, eps.denominator)


# a query reads one shift twice (`solve_delta`, then `inverse_matrix` at the
# same eps); keyed on the system's identity (the systems are `build_system`'s,
# and a hand-built one with the same (k, r) is another system) and on eps's
# integers, so no lookup hashes a `Fraction`
@lru_cache(maxsize=8)
def _shifted(sys: TridiagonalSystem, p: int, q: int) -> RecurrenceTables:
    """`recurrences(sys, p/q)`, built once per (sys, p, q)."""
    scale, diag, up, down = sys.rows
    diag = tuple(q * b - p * s for b, s in zip(diag, scale))
    up = tuple(q * u for u in up)
    down = tuple(q * l for l in down)
    offs = [u * l for u, l in zip(up, down)]
    lead = tuple(_minors(diag, offs))
    # the trailing minors are the leading minors of the reversed system
    trail = tuple(_minors(diag[::-1], offs[::-1])[::-1])
    if lead[-1] != trail[0]:
        raise ArithmeticError("minor recursions disagree on the determinant")
    scale = tuple(q * s for s in scale)
    return RecurrenceTables(sys.k, sys.r, Fraction(p, q), scale, diag, up, down, lead, trail)


def _inverse_column(mat: RecurrenceTables, g: int) -> list[int]:
    """Integer numerators N of column g of the shifted system's inverse,
    rows k..r-1: the column is N / det(M).  Entry (i, g) of M's inverse is
    lead[min] trail[max+1] / det(M) times the product of M's negated
    off-diagonals between i and g, carried outward from the diagonal; the
    shifted system's inverse is M's inverse times diag(scale), so column g
    carries scale[g] as well.  No minor is ever divided by."""
    j = g - mat.k
    d = len(mat.diag)
    col = [0] * d
    carried = mat.scale[j] * mat.trail[j + 1]
    col[j] = mat.lead[j] * carried
    for i in range(j - 1, -1, -1):  # rows above g: up[i] joins rows i and i+1
        carried *= mat.up[i]
        col[i] = mat.lead[i] * carried
    carried = mat.scale[j] * mat.lead[j]
    for i in range(j + 1, d):  # rows below g: down[i-1] joins rows i-1 and i
        carried *= mat.down[i - 1]
        col[i] = carried * mat.trail[i + 1]
    return col


def inverse_matrix(
    sys: TridiagonalSystem, eps: Fraction = Fraction(0)
) -> list[list[Fraction]]:
    """Full inverse of the shifted system, rows/columns indexed by [k, r-1];
    one pair of minor recursions serves every column."""
    mat = recurrences(sys, eps)
    det = mat.lead[-1]
    if det == 0:
        raise ZeroDivisionError("inverse_matrix: shifted system is singular")
    columns = [_inverse_column(mat, g) for g in sys.ms]
    return [[Fraction(v, det) for v in row] for row in zip(*columns)]


def solve_delta(k: int, g: int, r: int, eps: Fraction = Fraction(0)) -> list[Fraction]:
    """Multiplier vector (indices m = k..r-1): column g of the shifted
    system's inverse, read from the minor/product formula.

    The integer matrix M applied to the numerators is checked to be
    det(M) scale[g] at m = g and 0 elsewhere, row by row; the determinant
    is nonzero, so this accepts only the true column.  `build_system`
    checks k and r before g is checked here.
    """
    mat = recurrences(build_system(k, r), eps)
    if not k <= g < r:
        raise ValueError(f"solve_delta: need 2 <= k <= g < r, got ({k}, {g}, {r})")
    det = mat.lead[-1]
    if det == 0:
        raise ZeroDivisionError("solve_delta: shifted system is singular")
    num = _inverse_column(mat, g)
    j, d = g - k, len(num)
    for i in range(d):
        row = mat.diag[i] * num[i]
        if i >= 1:
            row -= mat.down[i - 1] * num[i - 1]
        if i + 1 < d:
            row -= mat.up[i] * num[i + 1]
        if row != (det * mat.scale[j] if i == j else 0):
            raise ArithmeticError(
                "solve_delta: minor formula does not solve the tridiagonal system"
            )
    return [Fraction(v, det) for v in num]


def asymptotic_product(k: int, g: int, r: int) -> Fraction:
    """The limiting upper bound: product of x_ratio(k, m, r) over m = k..g."""
    if not (2 <= k <= g < r):
        raise ValueError(f"asymptotic_product: need 2 <= k <= g < r, got ({k}, {g}, {r})")
    return Fraction(*_product_parts(k, g, r))


def _product_parts(k: int, g: int, r: int) -> tuple[int, int]:
    """`asymptotic_product(k, g, r)` as the unreduced integer pair
    (prod_m (C(r-1,k-1) - C(m-1,k-1)), C(r-1,k-1)^(g-k+1))."""
    parts = [_x_parts(k, m, r) for m in range(k, g + 1)]
    return math.prod(p for p, _ in parts), parts[0][1] ** len(parts)


def de_caen_bound(k: int, r: int, n: int) -> Fraction:
    """The value 1 - (1 + (r-k)/(n-r+1)) / C(r-1, k-1), printed as `deCaen`.

    It is not de Caen's bound and not an upper bound.  de Caen (1983) proves
    edge density at most 1 - (n-r+1)/((n-k+1) C(r-1, k-1)); this expression
    uses the reciprocal of that factor, so it lies below the limit
    1 - 1/C(r-1, k-1).  At (k, r, n) = (2, 3, 5) it gives 1/3, against the
    exhaustive maximum 3/5.  It is kept as is because the bounds digest
    pinned in benchmarks/gates.py records it; the fix moves that digest."""
    if not (2 <= k <= r <= n):
        raise ValueError(f"de_caen_bound: need 2 <= k <= r <= n, got ({k}, {r}, {n})")
    # over (n-r+1) C(r-1, k-1), the subtracted term is (n-r+1) + (r-k)
    den = (n - r + 1) * binomial(r - 1, k - 1)
    return Fraction(den - (n - k + 1), den)


class BoundReport(NamedTuple):
    """One evaluation of the finite-n upper bound and its companions."""

    k: int
    g: int
    r: int
    n: int
    mode: EpsilonMode
    finite_factor: Fraction
    asymptotic: Fraction
    finite_bound: Fraction
    de_caen: Optional[Fraction]  # only meaningful when g == k
    lower_bound: Fraction


def upper_bound(
    k: int, g: int, r: int, n: int, mode: EpsilonMode = EpsilonMode.LITERAL
) -> BoundReport:
    """Finite-n upper bound for the density of complete g-sets among
    k-graphs on n vertices with no complete r-set.

    The bound is finite_factor * asymptotic.  In LITERAL mode the factor is
    the closed form 1 + (r-1)(r-k)^2 / ((k-1)^2 n - (r-1)(2k^2 - 2k(r+1) +
    r^2 + 1)), which is verified on the fly to equal the geometric form
    1/(1 - eps (r-1)(r-k)/(k-1)); CORRECTED mode uses the geometric form
    with its own eps.  Below the mode's vertex threshold the factor would
    be negative or blow up, so such n are rejected.

    With eps = top/((n-r+1)(k-1)) (`combinat.epsilon_value`), the geometric
    factor is the integer quotient D/(D - top (r-1)(r-k)) for
    D = (n-r+1)(k-1)^2, whose denominator is positive above the threshold.
    """
    if not (2 <= k <= g < r):
        raise ValueError(f"upper_bound: need 2 <= k <= g < r, got ({k}, {g}, {r})")
    square, top = (k - 1) ** 2, _eps_top(k, r, mode)
    # n <= vertex_threshold(k, r, mode), times (k-1)^2; eps needs n > r too
    if n * square <= (r - 1) * (square + top * (r - k)) or n <= r:
        thr = vertex_threshold(k, r, mode)
        raise ValueError(
            f"upper_bound: need n > {max(thr, Fraction(r))} (threshold for k={k}, "
            f"r={r}, mode={mode.value}), got n={n}"
        )
    geo_num = (n - r + 1) * square
    geo_den = geo_num - top * (r - 1) * (r - k)
    if mode is EpsilonMode.LITERAL:
        denom = square * n - (r - 1) * (2 * k * k - 2 * k * (r + 1) + r * r + 1)
        if (denom + (r - 1) * (r - k) ** 2) * geo_den != geo_num * denom:
            raise ArithmeticError("closed-form factor disagrees with geometric form")
    asym_num, asym_den = _product_parts(k, g, r)
    return BoundReport(
        k=k,
        g=g,
        r=r,
        n=n,
        mode=mode,
        finite_factor=Fraction(geo_num, geo_den),
        asymptotic=Fraction(asym_num, asym_den),
        finite_bound=Fraction(geo_num * asym_num, geo_den * asym_den),
        de_caen=de_caen_bound(k, r, n) if g == k else None,
        lower_bound=partite_lower_bound(k, g, (r - 1) // (k - 1)).direct,
    )


class PartiteBound(NamedTuple):
    """Asymptotic complete-g-set density of the balanced group blowup,
    computed two ways."""

    direct: Fraction
    formula: Fraction


# host-independent: kept per (k, g, l), so the inclusion-exclusion sum and its
# cross-check run once per key; every (k, g, (r-1)//(k-1)) with
# 2 <= k <= g < r <= 16 is 292 keys, so a sweep over that grid keeps them all
@lru_cache(maxsize=512)
def partite_lower_bound(k: int, g: int, l: int) -> PartiteBound:
    """Lower-bound construction: l equal groups, edges = k-sets meeting at
    least two groups.

    direct  -- exact limit of the complete-g-set density: the probability
               that g independent uniform group labels give every group at
               most k-1 members (sum of multinomials over bounded
               compositions, divided by l^g).
    formula -- a literal evaluation of the inclusion-exclusion sum
               sum_s (-1)^s C(l,s) sum_{i_1..i_s >= k, sum <= g}
               multinomial(g; i_1..i_s, g - sum) l^{-sum}, reported for
               comparison.  The two disagree in general (e.g. k=3, g=4,
               l=2 gives direct 3/8 but formula -1/8): the printed sum
               drops the factor ((l-s)/l)^(g - sum).  With it the sum
               equals `direct`, which is checked (ArithmeticError if not).

    Both are polynomial in g (`_inclusion_exclusion` groups the sum's terms
    by s and by the total covered); `upper_bound` reports `direct`.
    """
    if k < 2 or g < k or l < 1:
        raise ValueError(
            f"partite_lower_bound: need k >= 2, g >= k, l >= 1, got ({k}, {g}, {l})"
        )
    direct = _partite_direct(k, g, l)
    printed, corrected = _inclusion_exclusion(k, g, l)
    if corrected * direct.denominator != direct.numerator * l**g:
        raise ArithmeticError("partite_lower_bound: corrected sum disagrees with direct")
    return PartiteBound(direct, Fraction(printed, l**g))


def _partite_direct(k: int, g: int, l: int) -> Fraction:
    """`partite_lower_bound(k, g, l).direct`: DP over groups, dp[t] = number
    of assignments of some t of the g labeled items into the groups so far,
    each group holding at most k-1."""
    dp = [1] + [0] * g
    for _ in range(l):
        new = [0] * (g + 1)
        for t in range(g + 1):
            if dp[t] == 0:
                continue
            for c in range(0, min(k - 1, g - t) + 1):
                new[t + c] += dp[t] * math.comb(g - t, c)
        dp = new
    return Fraction(dp[g], l**g)


def _inclusion_exclusion(k: int, g: int, l: int) -> tuple[int, int]:
    """Numerators over l^g of (`partite_lower_bound(k, g, l).formula`, the
    corrected sum): the multinomials of the s-tuples with sum T add up to
    C(g, T) c_s(T), where c_s(T) counts the ordered s-tuples of disjoint
    labeled blocks, each of size >= k, covering T labeled items; so the
    printed sum is sum_s (-1)^s C(l,s) sum_T C(g,T) c_s(T) l^(g-T) / l^g,
    and the corrected one has (l-s)^(g-T) in place of l^(g-T).  DP over s:
    c_s(T) = sum_{i >= k} C(T, i) c_{s-1}(T - i), c_0 = [1, 0, ..], and
    c_s(T) = 0 for T < s k.  The terms with s > l vanish with C(l, s)."""
    binoms = [math.comb(g, t) for t in range(g + 1)]
    powers = [l ** (g - t) for t in range(g + 1)]
    blocks = [1] + [0] * g
    printed = corrected = 0
    for s in range(min(g // k, l) + 1):
        if s:  # c_{s-1} vanishes below (s-1) k, so i runs up to T - (s-1) k
            low = s * k
            blocks = [0] * low + [
                sum(math.comb(t, i) * blocks[t - i] for i in range(k, t - low + k + 1))
                for t in range(low, g + 1)
            ]
        left = l - s
        row_printed = row_corrected = 0
        for t in range(s * k, g + 1):
            a = binoms[t] * blocks[t]
            row_printed += a * powers[t]
            row_corrected += a * left ** (g - t)
        weight = (-1) ** s * math.comb(l, s)
        printed += weight * row_printed
        corrected += weight * row_corrected
    return printed, corrected


class SandwichTable(NamedTuple):
    """The g = r-1 comparison: blowup value <= product bound <= e^{(k-r)/k}.

    exp_limit_approx is the only non-rational quantity in the package; it is
    rendered to 12 decimal places and labeled approximate.  The ordering is
    asserted with exact rational brackets around the exponential.
    """

    k: int
    r: int
    groups: int
    multinomial_lower: Fraction
    product: Fraction
    exp_limit_approx: str


# the 2 <= k < r <= 16 grid has 30 pairs with (k-1) | (r-1); kept per (k, r),
# so the bracket doubling and the ordering check run once per pair
@lru_cache(maxsize=64)
def sandwich_table(k: int, r: int) -> SandwichTable:
    """Evaluate the three-way comparison at g = r-1; requires (k-1) | (r-1)."""
    if k < 2 or r <= k:
        raise ValueError(f"sandwich_table: need 2 <= k < r, got ({k}, {r})")
    if (r - 1) % (k - 1) != 0:
        raise ValueError(
            f"sandwich_table: (k-1) = {k - 1} must divide (r-1) = {r - 1}"
        )
    l = (r - 1) // (k - 1)
    low_num, low_den = multinomial(r - 1, (k - 1,) * l), l ** (r - 1)
    prod_num, prod_den = _product_parts(k, r - 1, r)
    # 64 series terms bracket e^x tightly for |x| up to about 10; beyond
    # that the tail bound can exceed e^x itself, so double until the bracket
    # is narrow against its (then positive) lower end.  r >= 2|x| + 2 terms
    # keep the tail bound valid.  The bracket is lo/den .. hi/den, den > 0.
    common = math.gcd(r - k, k)
    a, b, terms = (k - r) // common, k // common, max(64, r)
    exp_lo, exp_hi, den = _exp_bracket(a, b, terms)
    while (exp_hi - exp_lo) * 10**20 >= exp_lo:
        terms *= 2
        exp_lo, exp_hi, den = _exp_bracket(a, b, terms)
    if not (
        low_num * prod_den <= prod_num * low_den and prod_num * den <= exp_lo * prod_den
    ):
        raise ArithmeticError("sandwich_table: ordering check failed")
    approx = decimal_string(Fraction(exp_lo + exp_hi, 2 * den), 12)
    return SandwichTable(
        k=k,
        r=r,
        groups=l,
        multinomial_lower=Fraction(low_num, low_den),
        product=Fraction(prod_num, prod_den),
        exp_limit_approx=f"~{approx}",
    )
