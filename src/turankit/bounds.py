"""Clique-density bounds through the associated tridiagonal system.

The finite-n upper bound for the density of complete g-sets in k-graphs
with no complete r-set comes from combining three-term density inequalities
with nonnegative multipliers.  Finding the multipliers is a linear solve
against a tridiagonal matrix indexed by m in [k, r-1]; its determinant
recursions have closed forms (the trailing principal minors are all 1, the
determinant is 1) that make every inverse entry an explicit product.

Everything here is exact `fractions.Fraction` arithmetic.  One recursion
gives the leading minors; the trailing minors are the same recursion on the
reversed system.  `inverse_matrix` and `solve_delta` run it once per call
(`turankit solve`, which prints the tables as well, reads its column from
the same ones) and build each column of the inverse in one pass outward
from the diagonal, carrying the off-diagonal product.  Every multiplier
vector is then checked against the tridiagonal equations it must solve,
row by row; with a nonzero determinant that solution is unique, so the
check is independent of the minor formula and costs O(dimension).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .combinat import (
    EpsilonMode,
    binomial,
    decimal_string,
    epsilon_value,
    exp_bounds,
    multinomial,
    vertex_threshold,
    x_ratio,
)

__all__ = [
    "BoundReport",
    "PartiteBound",
    "RecurrenceTables",
    "SandwichTable",
    "TridiagonalSystem",
    "asymptotic_product",
    "build_system",
    "de_caen_bound",
    "inverse_matrix",
    "partite_lower_bound",
    "recurrences",
    "sandwich_table",
    "solve_delta",
    "upper_bound",
]


@dataclass(frozen=True)
class TridiagonalSystem:
    """The bound system for parameters (k, r), indexed by m in [k, r-1].

    diag[i]  = entry (m, m)   = 2 - (k-1)/(m x_ratio(k, m, r)),  m = k+i
    upper[i] = entry (m, m+1) = -x_ratio(k, m+1, r)
    lower[i] = entry (m+1, m) = -(1 - (k-1)/m) / x_ratio(k, m, r)

    Off-diagonal entries are strictly negative on the whole range, which is
    what forces the inverse to be entrywise positive.
    """

    k: int
    r: int
    diag: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]

    @property
    def dim(self) -> int:
        return self.r - self.k

    @property
    def ms(self) -> tuple[int, ...]:
        return tuple(range(self.k, self.r))

    def dense(self, eps: Fraction = Fraction(0)) -> list[list[Fraction]]:
        """The shifted matrix (system minus eps on the diagonal) as rows."""
        d = self.dim
        out = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            out[i][i] = self.diag[i] - eps
            if i + 1 < d:
                out[i][i + 1] = self.upper[i]
                out[i + 1][i] = self.lower[i]
        return out


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


@dataclass(frozen=True)
class RecurrenceTables:
    """Minor recursions of the shifted system.

    theta[j] = theta(k-1+j), the leading principal minor over rows/columns
    {k..k-1+j}; theta[0] is the seed theta(k-1) = 1.  phi[j] = phi(k+j),
    the trailing minor over {k+j..r-1}, padded with the seeds phi(r) = 1 and
    phi(r+1) = 0.  zeta[j] = phi(m+1) - phi(m) for m = k+j, with the seed
    zeta(r) = 0.  The determinant equals both theta(r-1) and phi(k).
    """

    k: int
    r: int
    epsilon: Fraction
    theta: tuple[Fraction, ...]  # m = k-1 .. r-1
    phi: tuple[Fraction, ...]  # m = k .. r+1
    zeta: tuple[Fraction, ...]  # m = k .. r
    determinant: Fraction

    def nonpositive_entries(self) -> list[tuple[str, int]]:
        """Flag (table, m) pairs with nonpositive values; nonempty tables
        signal that epsilon sits at or beyond the positivity threshold."""
        bad = []
        for j, v in enumerate(self.theta):
            if v <= 0:
                bad.append(("theta", self.k - 1 + j))
        for j, v in enumerate(self.phi[:-1]):  # phi(r+1) is the 0 seed
            if v <= 0:
                bad.append(("phi", self.k + j))
        return bad


def _minors(diag: list[Fraction], offs: list[Fraction]) -> list[Fraction]:
    """Leading principal minors 1, D_1, .., D_d of the tridiagonal matrix
    with diagonal `diag` and off-diagonal products offs[i] = upper[i] *
    lower[i]: D_i = diag[i-1] D_{i-1} - offs[i-2] D_{i-2}."""
    out = [Fraction(0), Fraction(1)]
    for i, a in enumerate(diag):
        out.append(a * out[-1] - (offs[i - 1] * out[-2] if i else 0))
    return out[1:]


def recurrences(sys: TridiagonalSystem, eps: Fraction = Fraction(0)) -> RecurrenceTables:
    """Run both minor recursions for the shifted system and cross-check the
    determinant.  Large eps may drive entries nonpositive; that is reported
    through `nonpositive_entries`, not an error."""
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("recurrences: eps must be nonnegative")
    diag = [a - eps for a in sys.diag]
    offs = [u * l for u, l in zip(sys.upper, sys.lower)]
    theta = _minors(diag, offs)
    # the trailing minors are the leading minors of the reversed system
    phi = _minors(diag[::-1], offs[::-1])[::-1] + [Fraction(0)]
    if theta[-1] != phi[0]:
        raise ArithmeticError("minor recursions disagree on the determinant")
    zeta = [phi[j + 1] - phi[j] for j in range(sys.dim)] + [Fraction(0)]
    return RecurrenceTables(
        sys.k, sys.r, eps, tuple(theta), tuple(phi), tuple(zeta), theta[-1]
    )


def _inverse_column(
    sys: TridiagonalSystem, tab: RecurrenceTables, g: int
) -> list[Fraction]:
    """Column g of the inverse, rows m = k..r-1.  Entry (m, g) is
    theta(min-1) phi(max+1) / det times the product of the negated
    off-diagonals between m and g, carried outward from the diagonal, so
    no minor is ever divided by."""
    j = g - sys.k
    col = [Fraction(0)] * sys.dim
    carried = 1 / tab.determinant
    col[j] = tab.theta[j] * tab.phi[j + 1] * carried
    for i in range(j - 1, -1, -1):  # m < g: upper[i] joins rows m and m+1
        carried *= -sys.upper[i]
        col[i] = tab.theta[i] * tab.phi[j + 1] * carried
    carried = 1 / tab.determinant
    for i in range(j + 1, sys.dim):  # m > g: lower[i-1] joins rows m-1 and m
        carried *= -sys.lower[i - 1]
        col[i] = tab.theta[j] * tab.phi[i + 1] * carried
    return col


def inverse_matrix(
    sys: TridiagonalSystem, eps: Fraction = Fraction(0)
) -> list[list[Fraction]]:
    """Full inverse of the shifted system, rows/columns indexed by [k, r-1];
    one pair of minor recursions serves every column."""
    tab = recurrences(sys, eps)
    if tab.determinant == 0:
        raise ZeroDivisionError("inverse_matrix: shifted system is singular")
    columns = [_inverse_column(sys, tab, g) for g in sys.ms]
    return [list(row) for row in zip(*columns)]


def solve_delta(k: int, g: int, r: int, eps: Fraction = Fraction(0)) -> list[Fraction]:
    """Multiplier vector (indices m = k..r-1): column g of the shifted
    system's inverse, read from the minor/product formula.

    Every row of the shifted system applied to the vector is checked to be 1
    at m = g and 0 elsewhere; the determinant is nonzero, so this accepts
    only the true column.
    """
    if not (2 <= k <= g < r):
        raise ValueError(f"solve_delta: need 2 <= k <= g < r, got ({k}, {g}, {r})")
    sys = build_system(k, r)
    return _solve_column(sys, recurrences(sys, eps), g)


def _solve_column(sys: TridiagonalSystem, tab: RecurrenceTables, g: int) -> list[Fraction]:
    """`solve_delta` on a system and its minor tables at tab.epsilon, for a
    caller that also reports the tables."""
    k, r, eps = sys.k, sys.r, tab.epsilon
    if not k <= g < r:
        raise ValueError(f"solve_delta: need 2 <= k <= g < r, got ({k}, {g}, {r})")
    if tab.determinant == 0:
        raise ZeroDivisionError("solve_delta: shifted system is singular")
    delta = _inverse_column(sys, tab, g)
    for i, m in enumerate(sys.ms):
        row = (sys.diag[i] - eps) * delta[i]
        if i >= 1:
            row += sys.lower[i - 1] * delta[i - 1]
        if i + 1 < sys.dim:
            row += sys.upper[i] * delta[i + 1]
        if row != (1 if m == g else 0):
            raise ArithmeticError(
                "solve_delta: minor formula does not solve the tridiagonal system"
            )
    return delta


def asymptotic_product(k: int, g: int, r: int) -> Fraction:
    """The limiting upper bound: product of x_ratio(k, m, r) over m = k..g."""
    if not (2 <= k <= g < r):
        raise ValueError(f"asymptotic_product: need 2 <= k <= g < r, got ({k}, {g}, {r})")
    return math.prod((x_ratio(k, m, r) for m in range(k, g + 1)), start=Fraction(1))


def de_caen_bound(k: int, r: int, n: int) -> Fraction:
    """Classical upper bound 1 - (1 + (r-k)/(n-r+1)) / C(r-1, k-1) for the
    edge density of k-graphs on n vertices with no complete r-set."""
    if not (2 <= k <= r <= n):
        raise ValueError(f"de_caen_bound: need 2 <= k <= r <= n, got ({k}, {r}, {n})")
    return 1 - (1 + Fraction(r - k, n - r + 1)) * Fraction(1, binomial(r - 1, k - 1))


@dataclass(frozen=True)
class BoundReport:
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
    lower_bound: Optional[Fraction]


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
    """
    if not (2 <= k <= g < r):
        raise ValueError(f"upper_bound: need 2 <= k <= g < r, got ({k}, {g}, {r})")
    thr = max(vertex_threshold(k, r, mode), Fraction(r))  # eps needs n > r too
    if n <= thr:
        raise ValueError(
            f"upper_bound: need n > {thr} (threshold for k={k}, r={r}, "
            f"mode={mode.value}), got n={n}"
        )
    eps = epsilon_value(k, r, n, mode)
    geometric = 1 / (1 - eps * Fraction((r - 1) * (r - k), k - 1))
    if mode is EpsilonMode.LITERAL:
        denom = (k - 1) ** 2 * n - (r - 1) * (2 * k * k - 2 * k * (r + 1) + r * r + 1)
        factor = 1 + Fraction((r - 1) * (r - k) ** 2, denom)
        if factor != geometric:
            raise ArithmeticError("closed-form factor disagrees with geometric form")
    else:
        factor = geometric
    asym = asymptotic_product(k, g, r)
    lower = _partite_direct(k, g, (r - 1) // (k - 1))
    return BoundReport(
        k=k,
        g=g,
        r=r,
        n=n,
        mode=mode,
        finite_factor=factor,
        asymptotic=asym,
        finite_bound=factor * asym,
        de_caen=de_caen_bound(k, r, n) if g == k else None,
        lower_bound=lower,
    )


class PartiteBound(NamedTuple):
    """Asymptotic complete-g-set density of the balanced group blowup,
    computed two ways."""

    direct: Fraction
    formula: Fraction


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
               l=2 gives direct 3/8 but formula -1/8); `direct` is the
               value backed by the counting argument.

    `upper_bound` reports `direct` alone and computes only that, never the
    sum, whose term count grows exponentially in g.
    """
    if k < 2 or g < k or l < 1:
        raise ValueError(
            f"partite_lower_bound: need k >= 2, g >= k, l >= 1, got ({k}, {g}, {l})"
        )
    direct = _partite_direct(k, g, l)
    formula = Fraction(0)
    for s in range(g // k + 1):
        inner = Fraction(0)
        if s == 0:
            inner = Fraction(1)
        else:
            for parts in _tuples_at_least(k, s, g):
                total = sum(parts)
                inner += Fraction(
                    multinomial(g, parts + (g - total,)), l**total
                )
        formula += (-1) ** s * binomial(l, s) * inner
    return PartiteBound(direct, formula)


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


def _tuples_at_least(k: int, s: int, g: int):
    """Ordered s-tuples with every entry >= k and sum <= g."""
    if s == 0:
        yield ()
        return
    for first in range(k, g - k * (s - 1) + 1):
        for rest in _tuples_at_least(k, s - 1, g - first):
            yield (first,) + rest


@dataclass(frozen=True)
class SandwichTable:
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


def sandwich_table(k: int, r: int) -> SandwichTable:
    """Evaluate the three-way comparison at g = r-1; requires (k-1) | (r-1)."""
    if k < 2 or r <= k:
        raise ValueError(f"sandwich_table: need 2 <= k < r, got ({k}, {r})")
    if (r - 1) % (k - 1) != 0:
        raise ValueError(
            f"sandwich_table: (k-1) = {k - 1} must divide (r-1) = {r - 1}"
        )
    l = (r - 1) // (k - 1)
    lower = Fraction(multinomial(r - 1, (k - 1,) * l), l ** (r - 1))
    product = asymptotic_product(k, r - 1, r)
    exp_lo, exp_hi = exp_bounds(Fraction(k - r, k))
    if not lower <= product <= exp_lo:
        raise ArithmeticError("sandwich_table: ordering check failed")
    approx = decimal_string((exp_lo + exp_hi) / 2, 12)
    return SandwichTable(
        k=k,
        r=r,
        groups=l,
        multinomial_lower=lower,
        product=product,
        exp_limit_approx=f"~{approx}",
    )
