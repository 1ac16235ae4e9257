"""Zero-delay two-encoder achievable region with exact membership queries.

Each base point fixes a partition of X and a partition of Y plus the order of
decoding.  Under order YX the Y-message is decoded first with no side
information (plain Huffman rate L(V)) and then serves as SI for the X-message
(RI rate L_V(U)); order XY is symmetric.  So each pair is two
``quantizers.rd_points`` points, X given Y's cell and Y given X's cell; the
RI rate, decoder and distortion of each side serve both orders.  The "SIM"
points, both messages Huffman-coded, are read off the region: each takes
the YX point's Y rate and the XY point's X rate.

The region is the dominance-and-convexity closure of both clouds; membership
is an exact rational linear feasibility problem whose basic solutions
automatically give time-sharing witnesses with support at most 5 (one weight
per tableau row).  The phase-1 simplex is fraction-free: rows are lists of
ints over one denominator each (as in Bareiss elimination), holding exactly
the values of a Fraction tableau, so Bland's rule makes the same pivots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError
from .probability import (
    DistortionMatrix,
    JointPMF,
    ZERO,
    aggregate_rows,
    format_rational,
    marginal_si,
    transpose,
)
from .quantizers import DecoderRule, Partition, _rd_points, enumerate_partitions
from .ri_codes import huffman

ORDERS = ("YX", "XY", "SIM")


@dataclass(frozen=True)
class MTPoint:
    """One (partition of X, partition of Y, order) operating point."""

    order: str
    partition_x: Partition
    partition_y: Partition
    decoder_x: DecoderRule
    decoder_y: DecoderRule
    rx: Fraction
    ry: Fraction
    dx: Fraction
    dy: Fraction

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.rx, self.ry, self.dx, self.dy)


@dataclass(frozen=True)
class MTRegion:
    """Base point cloud; closure under time-sharing and coordinate increase
    is realized by the membership query, not materialized."""

    points: tuple[MTPoint, ...]


@dataclass(frozen=True)
class AchievabilityResult:
    achievable: bool
    witness: tuple[tuple[Fraction, MTPoint], ...] | None


def enumerate_mt_points(
    pmf: JointPMF, d_x: DistortionMatrix, d_y: DistortionMatrix, order: str
) -> list[MTPoint]:
    """One point per (partition of X, partition of Y) pair for one order.

    ``order`` is "YX" or "XY" for the region's two decoding orders, or "SIM"
    for the simpler variant that Huffman-codes both messages with no
    cross-SI (for comparison only; those points are not part of the region).
    """
    if order not in ORDERS:
        raise DomainError(f"order must be one of {ORDERS}, got {order!r}")
    region = build_region(pmf, d_x, d_y)
    if order == "SIM":
        return simultaneous_points(region)
    return [p for p in region.points if p.order == order]


def build_region(pmf: JointPMF, d_x: DistortionMatrix, d_y: DistortionMatrix) -> MTRegion:
    """Base points of both transmission orders, all YX then all XY.

    Pair (i, j) takes its X side from item i of the cloud of cols[j], the
    (x, v) joint with Y merged by partition j, and its Y side from item j of
    the cloud of rows[i], the (y, u) joint with X merged by partition i.
    All the clouds share one RI memo, so each distinct RI instance of the
    region is solved once per call.
    """
    by_y = transpose(pmf)
    cols = [transpose(aggregate_rows(by_y, py.cells)) for py in enumerate_partitions(pmf.si)]
    rows = [transpose(aggregate_rows(pmf, px.cells)) for px in enumerate_partitions(pmf.source)]
    len_v = [_huffman_length(marginal_si(joint)) for joint in cols]
    len_u = [_huffman_length(marginal_si(joint)) for joint in rows]
    solved: dict = {}
    x_side = [_rd_points(joint, d_x, solved) for joint in cols]
    yx, xy = [], []
    for i, row in enumerate(rows):
        for j, qy in enumerate(_rd_points(row, d_y, solved)):
            qx = x_side[j][i]
            # the Y table is keyed (v, u); re-key it in the X table's u-major order
            gy = DecoderRule({(u, v): qy.decoder.table[(v, u)] for u, v in qx.decoder.table})
            pair = (qx.partition, qy.partition, qx.decoder, gy)
            yx.append(MTPoint("YX", *pair, qx.rate, len_v[j], qx.distortion, qy.distortion))
            xy.append(MTPoint("XY", *pair, len_u[i], qy.rate, qx.distortion, qy.distortion))
    return MTRegion(tuple(yx + xy))


def simultaneous_points(region: MTRegion) -> list[MTPoint]:
    """The "SIM" point of each pair: both messages at their Huffman lengths.

    Under YX the Y message already costs L(V) and under XY the X message
    costs L(U), so each YX point takes the rate of X from the XY point of
    the same partitions.
    """
    huffman_rx = {
        (p.partition_x, p.partition_y): p.rx for p in region.points if p.order == "XY"
    }
    return [
        replace(p, order="SIM", rx=huffman_rx[p.partition_x, p.partition_y])
        for p in region.points
        if p.order == "YX"
    ]


def _huffman_length(marginal) -> Fraction:
    """Huffman length of a marginal's positive part (0 for a single symbol)."""
    return huffman([w for w in marginal if w > 0])[1]


def _reduce(row: list[int], den: int) -> tuple[list[int], int]:
    """The row and its denominator divided by their common gcd."""
    g = gcd(*row, den)
    return ([v // g for v in row], den // g) if g > 1 else (row, den)


def _feasible_mixture(vectors, target) -> list[Fraction] | None:
    """Exact phase-1 simplex: weights lambda >= 0, sum 1, mix <= target.

    Fraction-free: each tableau row, and the objective row, is a list of
    ints over one positive denominator, reduced by their gcd after every
    update, so it holds exactly the values of a Fraction tableau.  Bland's
    rule (first negative reduced cost enters; ratio ties leave the lower
    basis index) guarantees termination; a basic feasible solution has at
    most 5 nonzero weights (the tableau has 5 rows).
    """
    n = len(vectors)
    rows = 5
    # columns: n lambdas, 4 slacks, 5 artificials, rhs
    art0, rhs_col = n + 4, n + 9
    tableau: list[list[int]] = []
    dens: list[int] = []
    for k in range(4):
        values = [Fraction(v[k]) for v in vectors] + [Fraction(target[k])]
        den = lcm(*(v.denominator for v in values))
        scaled = [v.numerator * (den // v.denominator) for v in values]
        tableau.append(scaled[:n] + [den if j == k else 0 for j in range(4)] + [0] * 5 + scaled[n:])
        dens.append(den)
    tableau.append([1] * n + [0] * 9 + [1])
    dens.append(1)
    for r in range(rows):
        if tableau[r][rhs_col] < 0:
            tableau[r] = [-v for v in tableau[r]]
        tableau[r][art0 + r] = dens[r]
    basis = [art0 + r for r in range(rows)]
    # phase-1 objective: minimize sum of artificials
    obj_den = lcm(*dens)
    obj = [0] * (rhs_col + 1)
    for row, den in zip(tableau, dens):
        f = obj_den // den
        obj = [a - f * b for a, b in zip(obj, row)]
    for r in range(rows):
        obj[art0 + r] = 0
    obj, obj_den = _reduce(obj, obj_den)

    while True:
        enter = next((j for j in range(art0) if obj[j] < 0), None)
        if enter is None:
            break
        # ratios rhs / coef compared by cross-multiplication (coef > 0)
        leave = None
        for r in range(rows):
            coef = tableau[r][enter]
            if coef > 0:
                if leave is None:
                    leave = r
                    continue
                here = tableau[r][rhs_col] * tableau[leave][enter]
                best = tableau[leave][rhs_col] * coef
                if here < best or (here == best and basis[r] < basis[leave]):
                    leave = r
        if leave is None:
            return None  # cannot happen in phase 1; defensive
        # dividing the pivot row by its entry leaves the ints over that entry
        pivot_row, pivot = _reduce(tableau[leave], tableau[leave][enter])
        tableau[leave], dens[leave] = pivot_row, pivot
        for r in range(rows):
            f = tableau[r][enter]
            if r != leave and f != 0:
                tableau[r], dens[r] = _reduce(
                    [a * pivot - f * b for a, b in zip(tableau[r], pivot_row)], dens[r] * pivot
                )
        f = obj[enter]
        if f != 0:
            obj, obj_den = _reduce([a * pivot - f * b for a, b in zip(obj, pivot_row)], obj_den * pivot)
        basis[leave] = enter

    if obj[rhs_col] != 0:
        return None
    weights = [ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            weights[b] = Fraction(tableau[r][rhs_col], dens[r])
    return weights


def is_achievable(region: MTRegion, target) -> AchievabilityResult:
    """Exact membership test with a Caratheodory witness of support <= 5.

    target is a quadruple (Rx, Ry, Dx, Dy); achievable iff some convex
    combination of base points is coordinate-wise <= target.
    """
    target = tuple(Fraction(t) for t in target)
    if len(target) != 4:
        raise DomainError(f"target needs 4 coordinates (Rx, Ry, Dx, Dy), got {len(target)}")
    vectors = [p.coords for p in region.points]
    weights = _feasible_mixture(vectors, target)
    if weights is None:
        return AchievabilityResult(False, None)
    witness = tuple(
        (w, region.points[i]) for i, w in enumerate(weights) if w > 0
    )
    return AchievabilityResult(True, witness)


def pareto_surface(region: MTRegion) -> list[MTPoint]:
    """Base points undominated under the coordinate-wise 4-D partial order.

    Of points with equal coordinates only the first is kept.  The points are
    visited in (coordinates, index) order, on integer coordinates over one
    denominator per axis, so every point that dominates another comes before
    it and each point is tested only against the points kept so far.
    """
    points = region.points
    scales = [lcm(*(p.coords[k].denominator for p in points)) for k in range(4)]
    scaled = [tuple(c.numerator * (s // c.denominator) for c, s in zip(p.coords, scales)) for p in points]
    kept: list[int] = []
    for i in sorted(range(len(points)), key=lambda i: (scaled[i], i)):
        if not any(all(a <= b for a, b in zip(scaled[k], scaled[i])) for k in kept):
            kept.append(i)
    return [points[i] for i in sorted(kept)]


def export_region_csv(region: MTRegion) -> str:
    lines = ["order,Rx,Ry,Dx,Dy,partitionX,partitionY"]
    for p in region.points:
        lines.append(
            f"{p.order},{format_rational(p.rx)},{format_rational(p.ry)},"
            f"{format_rational(p.dx)},{format_rational(p.dy)},"
            f"{p.partition_x.to_string()},{p.partition_y.to_string()}"
        )
    return "\n".join(lines)


def export_witness_csv(witness) -> str:
    lines = ["weight,order,Rx,Ry,Dx,Dy,partitionX,partitionY"]
    for w, p in witness:
        lines.append(
            f"{format_rational(w)},{p.order},{format_rational(p.rx)},"
            f"{format_rational(p.ry)},{format_rational(p.dx)},{format_rational(p.dy)},"
            f"{p.partition_x.to_string()},{p.partition_y.to_string()}"
        )
    return "\n".join(lines)
