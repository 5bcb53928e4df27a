"""Clique-density bounds through the associated tridiagonal system.

The finite-n upper bound for the density of complete g-sets in k-graphs
with no complete r-set comes from combining three-term density inequalities
with nonnegative multipliers.  Finding the multipliers is a linear solve
against a tridiagonal matrix indexed by m in [k, r-1]; its determinant
recursions have closed forms (the trailing principal minors are all 1, the
determinant is 1) that make every inverse entry an explicit product.

Everything here is exact, and the solve runs in Python integers.  The
records are NamedTuples, and one, `TridiagonalSystem`, is the system of
(k, r) shifted by epsilon: its rows in integers, row i scaled by the lcm R_i
of its entry denominators (`build_system` forms each entry as one
`Fraction` of the integer pairs of `combinat._x_parts`), with their leading
and trailing minors.  `build_system` returns the record at epsilon 0, cached
per (k, r); `recurrences(sys, eps)` shifts it by eps more: at epsilon p/q
the system becomes the integer matrix M = q (scaled rows) - p diag(R), one
integer recursion gives M's leading minors, the trailing minors are the same
recursion on the reversed system, and the two must agree on the determinant.
A system is identified by (k, r) and its epsilon: `recurrences` keeps its
last few records (`_shifted`, with tuple fields) per (k, r) and epsilon's
integers (p, q), so no lookup hashes a `Fraction` or a record, and
`solve_delta` and `inverse_matrix` at one eps share one record (`turankit
solve` reads its tables from `recurrences` and its column through
`solve_delta`, both from one record).  Both read `_inverse_columns`, one
walk per column outward from the diagonal carrying the off-diagonal
product: `inverse_matrix` walks every column, `solve_delta` column g alone.
The walk reduces each entry as it goes, by the gcds of det(M) with the
small factors it multiplies in and with precomputed gcds of the minors it
reads (2d for every column, d+1 for one), so it makes no gcd of an entry
against the full determinant, and builds the entries, already in lowest
terms, with `_lowest`, which skips the gcd `Fraction(n, d)` would run
again.  The `Fraction` tables theta, phi and zeta are computed only when
read: the integer minors divided by the prefix and suffix products of the
row scales.  Every multiplier vector `solve_delta` returns is checked
against the integer equations M N = det(M) q R_g e_g, row by row, on every
call, with N = det(M) times the returned entries, one `divmod` per entry;
with a nonzero determinant that solution is unique, so the check is
independent of the minor formula and of the reduction, and costs
O(dimension) big-integer operations.

The reports are integer arithmetic as well, with one reduced `Fraction` per
reported value.  The limit prod_m x(m) is one quotient of integer products
(`combinat._x_parts`); `upper_bound` tests n against the vertex threshold
multiplied out in integers (the threshold `Fraction` is built only for the
error message), its geometric factor is an integer pair, its LITERAL closed
form is checked against that pair by one cross-multiplication, and the
finite bound is built from the two pairs at once.  `sandwich_table` orders
its three values by two cross-multiplications (the second is AM-GM's) and
takes e^{(k-r)/k} from `decimal`, at 40 digits, only for its printed digits;
`partite_lower_bound` reads the integer record `_partite_record`, one per
(k, l), grown in place to the largest g asked, and checks its corrected
sum against `direct`.  Neither depends on a host, so each is kept per key,
(k, r) and (k, g, l), and its check runs once per key; a check that raises
caches nothing.  `upper_bound` reads the partite record's `direct`.
"""

from __future__ import annotations

import decimal
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
    _x_parts,
    binomial,
    decimal_string,
    multinomial,
    vertex_threshold,
)

__all__ = _NAMES["bounds"].split()


class TridiagonalSystem(NamedTuple):
    """The bound system for (k, r) shifted by epsilon, indexed by m in
    [k, r-1] (row i is m = k+i).  The unshifted system A has entries

    (m, m)   = 2 - (k-1)/(m x_ratio(k, m, r))
    (m, m+1) = -x_ratio(k, m+1, r)
    (m+1, m) = -(1 - (k-1)/m) / x_ratio(k, m, r)

    Off-diagonal entries are strictly negative on the whole range, which is
    what forces the inverse to be entrywise positive.  At epsilon = p/q the
    record holds the integer matrix M = diag(scale) (A - epsilon I), that is
    q (R A) - p diag(R) with R_i the lcm of row i's entry denominators and
    scale = q R: diag is M's diagonal, up and down its off-diagonals
    negated, and M's minors are lead[j] over rows 0..j-1 (lead[0] = 1) and
    trail[j] over rows j..d-1 (trail[d] = 1), so det(M) = lead[d] = trail[0].

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


@lru_cache(maxsize=256)
def build_system(k: int, r: int) -> TridiagonalSystem:
    """The (r-k)-dimensional tridiagonal system for (k, r), unshifted."""
    if k < 2 or r <= k:
        raise ValueError(f"build_system: need 2 <= k < r, got k={k}, r={r}")
    # x(m) = p/top: diag 2 - (k-1) top/(m p), upper -p(m+1)/top, lower (k-1-m) top/(m p)
    parts = [(m, *_x_parts(k, m, r)) for m in range(k, r)]
    diag = [Fraction(2 * m * p - (k - 1) * top, m * p) for m, p, top in parts]
    upper = [Fraction(-p, top) for _, p, top in parts[1:]] + [0]
    lower = [0] + [Fraction((k - 1 - m) * top, m * p) for m, p, top in parts[:-1]]
    rows = []
    for entries in zip(lower, diag, upper):
        scale = math.lcm(*(e.denominator for e in entries))
        rows.append((scale, *(scale // e.denominator * e.numerator for e in entries)))
    scale, left, mid, right = zip(*rows)
    up, down = tuple(-c for c in right[:-1]), tuple(-a for a in left[1:])
    return _system(k, r, Fraction(0), scale, mid, up, down)


def _system(k: int, r: int, epsilon: Fraction, scale, diag, up, down) -> TridiagonalSystem:
    """The record of the integer rows given, with their minors: the leading
    ones by one recursion, the trailing ones by the same recursion on the
    reversed system, cross-checked on the determinant."""
    offs = [u * l for u, l in zip(up, down)]
    lead = tuple(_minors(diag, offs))
    trail = tuple(_minors(diag[::-1], offs[::-1])[::-1])
    if lead[-1] != trail[0]:
        raise ArithmeticError("minor recursions disagree on the determinant")
    return TridiagonalSystem(k, r, epsilon, scale, diag, up, down, lead, trail)


def _minors(diag: tuple[int, ...], offs: list[int]) -> list[int]:
    """Leading principal minors 1, D_1, .., D_d of the tridiagonal matrix
    with diagonal `diag` and off-diagonal products offs[i] = upper[i] *
    lower[i]: D_i = diag[i-1] D_{i-1} - offs[i-2] D_{i-2}."""
    out = [0, 1]
    for i, a in enumerate(diag):
        out.append(a * out[-1] - (offs[i - 1] * out[-2] if i else 0))
    return out[1:]


def recurrences(sys: TridiagonalSystem, eps: Fraction = Fraction(0)) -> TridiagonalSystem:
    """`sys` shifted by eps more, so shifts add: the rows of `build_system`
    shifted in O(dimension), with their minors.  Large eps may drive minors
    nonpositive; that is reported through `nonpositive_entries`, not an
    error.  The record is `_shifted`'s, kept per (k, r, p, q) for the total
    epsilon p/q; its fields are tuples, so the callers that share it cannot
    change it."""
    if type(eps) is not Fraction:
        eps = Fraction(eps)
    if eps.numerator < 0:
        raise ValueError("recurrences: eps must be nonnegative")
    if sys.epsilon:
        eps += sys.epsilon
    return _shifted(sys.k, sys.r, eps.numerator, eps.denominator)


# a query reads one shift twice (`solve_delta`, then `inverse_matrix` at the
# same eps); keyed on eps's integers, so no lookup hashes a `Fraction`
@lru_cache(maxsize=8)
def _shifted(k: int, r: int, p: int, q: int) -> TridiagonalSystem:
    """`build_system(k, r)` shifted by p/q, built once per (k, r, p, q)."""
    base = build_system(k, r)
    diag = tuple(q * b - p * s for b, s in zip(base.diag, base.scale))
    up = tuple(q * u for u in base.up)
    down = tuple(q * l for l in base.down)
    scale = tuple(q * s for s in base.scale)
    return _system(k, r, Fraction(p, q), scale, diag, up, down)


def _lowest(n: int, d: int) -> Fraction:
    """The `Fraction` n/d for coprime n and d > 0, built without the gcd that
    `Fraction(n, d)` would run again.  It sets the class's two slots, as the
    private `Fraction._from_coprime_ints` of Python 3.12+ does.  The slots
    are ('_numerator', '_denominator') on Python 3.6 to 3.13, and `Fraction`
    has no instance dictionary, so a changed layout raises AttributeError
    here rather than giving a wrong value."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = n, d
    return f


def _inverse_columns(mat: TridiagonalSystem, first: int, stop: int) -> list[list[Fraction]]:
    """Columns first..stop-1 of the shifted system's inverse, rows k..r-1:
    out[i][j - first] is entry (i, j), indices from 0 at k.

    Entry (i, j) of M's inverse is lead[min] trail[max+1] / det(M) times the
    product of M's negated off-diagonals between i and j; the shifted
    system's inverse is M's inverse times diag(scale), so column j carries
    scale[j] as well.  Each column is walked once outward from the diagonal
    and each entry reduced on the way, by gcd(ab, n) = gcd(a, n) gcd(b, n /
    gcd(a, n)): the walk carries the reduced product and the denominator D
    left of det, and each factor takes out its gcd with D.  A minor's gcd
    with D is that of its gcd with det, made once per minor the columns read
    (2d for all columns, d+1 for one); the scale and the off-diagonals are
    small.  The entries come out in lowest terms with D > 0 (det < 0 past
    the threshold) and are built by `_lowest`."""
    det = mat.lead[-1]
    sign, size = (1, det) if det > 0 else (-1, -det)
    gcd = math.gcd
    # the minor of entry (i, j) is lead[i] for i <= j and trail[i] for i >= j,
    # so these columns read lead[:stop] and trail[first:]
    lead, trail, up, down = mat.lead[:-1], mat.trail[1:], mat.up, mat.down
    lead_gcd = [gcd(v, size) for v in lead[:stop]]
    trail_gcd = [0] * first + [gcd(v, size) for v in trail[first:]]
    d = len(lead)
    out = [[None] * (stop - first) for _ in range(d)]
    for col, j in enumerate(range(first, stop)):
        # top / top_den and low / low_den: the reduced product carried up
        # (from scale trail[j]) and down (from scale lead[j]) the column
        c = gcd(mat.scale[j], size)
        top, top_den = sign * mat.scale[j] // c, size // c
        c = gcd(lead_gcd[j], top_den)
        low, low_den = top * (lead[j] // c), top_den // c
        c = gcd(trail_gcd[j], top_den)
        top, top_den = top * (trail[j] // c), top_den // c
        c = gcd(lead_gcd[j], top_den)
        out[j][col] = _lowest(top * (lead[j] // c), top_den // c)
        for i in range(j - 1, -1, -1):  # rows above j: up[i] joins rows i and i+1
            c = gcd(up[i], top_den)
            top, top_den = top * (up[i] // c), top_den // c
            c = gcd(lead_gcd[i], top_den)
            out[i][col] = _lowest(top * (lead[i] // c), top_den // c)
        for i in range(j + 1, d):  # rows below j: down[i-1] joins rows i-1 and i
            c = gcd(down[i - 1], low_den)
            low, low_den = low * (down[i - 1] // c), low_den // c
            c = gcd(trail_gcd[i], low_den)
            out[i][col] = _lowest(low * (trail[i] // c), low_den // c)
    return out


def inverse_matrix(
    sys: TridiagonalSystem, eps: Fraction = Fraction(0)
) -> list[list[Fraction]]:
    """Full inverse of the shifted system, rows/columns indexed by [k, r-1]:
    every column of `_inverse_columns`, from one pair of minor recursions and
    the 2d gcds of the minors with det(M)."""
    mat = recurrences(sys, eps)
    if mat.lead[-1] == 0:
        raise ZeroDivisionError("inverse_matrix: shifted system is singular")
    return _inverse_columns(mat, 0, len(mat.diag))


def solve_delta(k: int, g: int, r: int, eps: Fraction = Fraction(0)) -> list[Fraction]:
    """Multiplier vector (indices m = k..r-1): column g of the shifted
    system's inverse, the one column `_inverse_columns` walks for it.

    The entries returned are checked: their integer numerators over det(M),
    N = det(M) delta (integers, as every denominator must divide det(M): one
    `divmod` per entry gives N's entry and the remainder to test), must
    satisfy M N = det(M) scale[g] e_g, row by row.  The determinant is
    nonzero, so this accepts only the values of the true column.
    `build_system` checks k and r before g is checked here.
    """
    mat = recurrences(build_system(k, r), eps)
    if not k <= g < r:
        raise ValueError(f"solve_delta: need 2 <= k <= g < r, got ({k}, {g}, {r})")
    det = mat.lead[-1]
    if det == 0:
        raise ZeroDivisionError("solve_delta: shifted system is singular")
    j, d = g - k, len(mat.diag)
    delta = [row[0] for row in _inverse_columns(mat, j, j + 1)]
    quotients = [divmod(det, x.denominator) for x in delta]
    num = [q * x.numerator for (q, _), x in zip(quotients, delta)]
    for i in range(d):
        row = mat.diag[i] * num[i]
        if i >= 1:
            row -= mat.down[i - 1] * num[i - 1]
        if i + 1 < d:
            row -= mat.up[i] * num[i + 1]
        if row != (det * mat.scale[j] if i == j else 0) or quotients[i][1]:
            raise ArithmeticError("solve_delta: column does not solve the tridiagonal system")
    return delta


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


# host-independent: kept per (k, g, l), so the per-g sums and their
# cross-check run once per key; every (k, g, (r-1)//(k-1)) with
# 2 <= k <= g < r <= 16 is 292 keys, so a sweep over that grid keeps them all
@lru_cache(maxsize=512)
def partite_lower_bound(k: int, g: int, l: int) -> PartiteBound:
    """Lower-bound construction: l equal groups, edges = k-sets meeting at
    least two groups.

    direct  -- exact limit of the complete-g-set density: the probability
               that g independent uniform group labels give every group at
               most k-1 members (`_partite_record`'s placement count at g,
               divided by l^g).
    formula -- a literal evaluation of the inclusion-exclusion sum
               sum_s (-1)^s C(l,s) sum_{i_1..i_s >= k, sum <= g}
               multinomial(g; i_1..i_s, g - sum) l^{-sum}, reported for
               comparison.  The two disagree in general (e.g. k=3, g=4,
               l=2 gives direct 3/8 but formula -1/8): the printed sum
               drops the factor ((l-s)/l)^(g - sum).  With it the sum
               equals `direct`, which is checked (ArithmeticError if not).

    Over l^g, the printed and corrected sums are sum_s (-1)^s C(l,s) sum_T
    C(g,T) c_s(T) w^(g-T) at w = l and w = l-s, for the record's block counts
    c_s(T); they run per g, by Horner's rule.
    """
    if k < 2 or g < k or l < 1:
        raise ValueError(
            f"partite_lower_bound: need k >= 2, g >= k, l >= 1, got ({k}, {g}, {l})"
        )
    placements, blocks = _partite_record(k, l, g)
    binoms = [math.comb(g, t) for t in range(g + 1)]
    printed = corrected = 0
    for s, counts in enumerate(blocks[: g // k + 1]):
        row_printed = row_corrected = 0
        for t in range(s * k, g + 1):
            a = binoms[t] * counts[t]
            row_printed = row_printed * l + a
            row_corrected = row_corrected * (l - s) + a
        weight = (-1) ** s * math.comb(l, s)
        printed += weight * row_printed
        corrected += weight * row_corrected
    if corrected != placements[g]:
        raise ArithmeticError("partite_lower_bound: corrected sum disagrees with direct")
    return PartiteBound(Fraction(placements[g], l**g), Fraction(printed, l**g))


def _partite_record(k: int, l: int, size: int) -> tuple[list[int], list[list[int]]]:
    """(placements, blocks) of the (k, l) record, grown in place through
    column `size`, by integer recurrences that do not depend on g; a sweep
    over g builds each column once, a single g only the columns up to it.

    placements[t] = t! [x^t] (sum_{c<k} x^c/c!)^l counts the placements of
    t labeled items into the l groups with at most k-1 in each; the power's
    recurrence gives t a[t] = sum_{j=1}^{k-1} ((l+1) j - t) C(t, j) a[t-j].
    blocks[s][T] = c_s(T) counts the ordered s-tuples of disjoint labeled
    blocks, each of size >= k, covering T labeled items, for s <= l:
    c_0 = [1, 0, ..] and c_s(T) = sum_{i >= k} C(T, i) c_{s-1}(T - i), which
    is 0 for T < s k, so row s starts at column s k."""
    placements, blocks = _partite_columns(k, l)
    for t in range(len(placements), size + 1):
        binoms = [math.comb(t, i) for i in range(t + 1)]
        a = sum(((l + 1) * j - t) * binoms[j] * placements[t - j] for j in range(1, min(k, t + 1)))
        if t % k == 0 and t // k == len(blocks) <= l:
            blocks.append([0] * t)
        # c_{s-1} vanishes below low = (s-1) k, so i runs up to T - low
        column = [0] + [
            sum(map(operator.mul, binoms[k : t - low + 1], reversed(last[low : t - k + 1])))
            for low, last in zip(itertools.count(0, k), blocks[:-1])
        ]
        placements.append(a // t)
        for row, c in zip(blocks, column):
            row.append(c)
    return placements, blocks


# the record grows in place; kept per (k, l), so each column is built once
@lru_cache(maxsize=128)
def _partite_columns(k: int, l: int) -> tuple[list[int], list[list[int]]]:
    """The (k, l) record before its first column past t = 0."""
    return [1], [[1]]


class SandwichTable(NamedTuple):
    """The g = r-1 comparison: blowup value <= product bound <= e^{(k-r)/k}.

    exp_limit_approx is the only non-rational quantity in the package; it is
    `decimal`'s exp at 40 digits, rendered to 12 decimal places and labeled
    approximate.  The ordering is proved in integers, without the exponential.
    """

    k: int
    r: int
    groups: int
    multinomial_lower: Fraction
    product: Fraction
    exp_limit_approx: str


# the 2 <= k < r <= 16 grid has 30 pairs with (k-1) | (r-1); kept per (k, r),
# so the ordering check and the exponential run once per pair
@lru_cache(maxsize=64)
def sandwich_table(k: int, r: int) -> SandwichTable:
    """Evaluate the three-way comparison at g = r-1; requires (k-1) | (r-1).

    The product's r-k factors are 1 - y_m with y_m = C(m-1,k-1)/C(r-1,k-1),
    and sum_m y_m = C(r-1,k)/C(r-1,k-1) = (r-k)/k (hockey stick), so by
    AM-GM the product is at most (1 - 1/k)^(r-k) <= e^{(k-r)/k}; the first
    inequality is checked by one cross-multiplication.
    """
    if k < 2 or r <= k:
        raise ValueError(f"sandwich_table: need 2 <= k < r, got ({k}, {r})")
    if (r - 1) % (k - 1) != 0:
        raise ValueError(
            f"sandwich_table: (k-1) = {k - 1} must divide (r-1) = {r - 1}"
        )
    l = (r - 1) // (k - 1)
    low_num, low_den = multinomial(r - 1, (k - 1,) * l), l ** (r - 1)
    prod_num, prod_den = _product_parts(k, r - 1, r)
    below = prod_num * k ** (r - k) <= (k - 1) ** (r - k) * prod_den  # AM-GM's bound
    if not (low_num * prod_den <= prod_num * low_den and below):
        raise ArithmeticError("sandwich_table: ordering check failed")
    # e^x at x = (k-r)/k, only for its 12 printed places: at 40 digits, x's
    # rounding and exp's correct rounding together err by under 10^-39
    ctx = decimal.Context(prec=40)
    exp_limit = Fraction(ctx.exp(ctx.divide(k - r, k)))
    return SandwichTable(
        k=k,
        r=r,
        groups=l,
        multinomial_lower=Fraction(low_num, low_den),
        product=Fraction(prod_num, prod_den),
        exp_limit_approx=f"~{decimal_string(exp_limit, 12)}",
    )
