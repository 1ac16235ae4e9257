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
per tableau row), which ``verify_witness`` checks.  The phase-1 simplex is
revised and fraction-free: it keeps only the basis inverse and the rhs, 6
columns of ints over one denominator per row, and prices the base points'
integer-scaled columns on demand.  Every value it compares is the value of
the full Fraction tableau, so Bland's rule makes the same pivots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, InvalidArgument, InvalidWitness
from .probability import (
    DistortionMatrix,
    JointPMF,
    ZERO,
    aggregate_rows,
    format_rational,
    transpose,
)
from .quantizers import DecoderRule, Partition, _rd_points, enumerate_partitions
from .ri_codes import huffman_codes

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
    parts_x = list(enumerate_partitions(pmf.source))
    parts_y = list(enumerate_partitions(pmf.si))
    by_y = transpose(pmf)
    cols = [transpose(aggregate_rows(by_y, py.cells)) for py in parts_y]
    rows = [transpose(aggregate_rows(pmf, px.cells)) for px in parts_x]
    unit = lcm(*(v.denominator for row in pmf.probs for v in row))
    masses = [[v.numerator * (unit // v.denominator) for v in row] for row in pmf.probs]
    x_mass, y_mass = [sum(row) for row in masses], [sum(col) for col in zip(*masses)]
    len_v = [_huffman_length(y_mass, py, unit) for py in parts_y]
    len_u = [_huffman_length(x_mass, px, unit) for px in parts_x]
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


def _huffman_length(masses: list[int], partition: Partition, unit: int) -> Fraction:
    """Huffman length of the cells' positive masses, ints over ``unit``
    (0 for a single cell).  Proportional weights tie exactly when the
    probabilities do, so the code is the one of the normalized marginal."""
    cells = [m for m in (sum(masses[s] for s in block) for block in partition._blocks) if m > 0]
    return Fraction(sum(m * len(w) for m, w in zip(cells, huffman_codes(cells))), unit)


def _rational(value) -> Fraction:
    """A target coordinate as a Fraction; NaN, an infinity or a non-number
    is an InvalidArgument."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidArgument(f"target coordinate {value!r} is not a finite rational") from None


def _reduce(row: list[int], den: int) -> tuple[list[int], int]:
    """The row and its denominator divided by their common gcd."""
    g = gcd(*row, den)
    return ([v // g for v in row], den // g) if g > 1 else (row, den)


def _feasible_mixture(vectors, target) -> list[Fraction] | None:
    """Exact phase-1 simplex: weights lambda >= 0, sum 1, mix <= target.

    Row k < 4 reads sum_j lambda_j v_j[k] + s_k = target[k] and row 4
    sum_j lambda_j = 1; a row with a negative rhs is negated, and each row
    gets an artificial.  Columns in Bland order: the n lambdas, the 4
    slacks, the 5 artificials.  Bland's rule (first negative reduced cost
    enters; ratio ties leave the lower basis index) guarantees termination;
    a basic feasible solution has at most 5 nonzero weights (5 rows).

    Revised and fraction-free.  Each axis is scaled to integers once, by the
    lcm of its coordinates' and the target's denominators.  Of the tableau
    only 6 columns are kept: per row, the basis inverse of the scaled system
    (the artificial columns, axis i's divided by its scale) and the rhs, as
    ints over one positive denominator reduced by their gcd after every
    update; the objective row is kept the same way, its inverse part being
    the negated prices.  A column's reduced cost and entries are integer dot
    products of those rows with its scaled column, formed when needed: they
    are exactly the values of the full Fraction tableau, so Bland's rule
    makes the same pivots and the weights are the same.
    """
    n = len(vectors)
    target = [_rational(t) for t in target]
    if n == 0:
        return None  # no weights sum to 1
    axes, scales, rhs = [], [], []
    for t, axis in zip(target, zip(*vectors)):
        ratios = [c.as_integer_ratio() for c in axis]
        scale = lcm(t.denominator, *{d for _, d in ratios})
        axes.append([a * (scale // d) for a, d in ratios])
        scales.append(scale)
        rhs.append(t.numerator * (scale // t.denominator))
    points = list(zip(*axes))  # scaled columns of the lambdas, row 4's 1 left out
    sign = [1 if b >= 0 else -1 for b in rhs] + [1]
    scales.append(1)
    # row r: inverse of the scaled basis (initially e_r over its scale), then rhs
    rows = [[int(i == r) for i in range(5)] + [abs(b)] for r, b in enumerate(rhs + [1])]
    dens = scales[:]
    obj_den = lcm(*scales)
    # phase-1 objective, the sum of the artificials: minus the sum of the rows
    obj = [-(obj_den // s) for s in scales] + [-sum(row[5] * (obj_den // s) for row, s in zip(rows, scales))]
    obj, obj_den = _reduce(obj, obj_den)
    basis = [n + 4 + r for r in range(5)]

    while True:
        # lambda_j's reduced cost is w . (its scaled coordinates, 1), over obj_den
        w0, w1, w2, w3, w4 = (y * s for y, s in zip(obj, sign))
        enter = next(
            (j for j, (a, b, c, d) in enumerate(points) if w0 * a + w1 * b + w2 * c + w3 * d + w4 < 0),
            None,
        )
        if enter is not None:
            column = [s * a for s, a in zip(sign, points[enter])] + [1]
        else:
            k = next((k for k in range(4) if obj[k] * sign[k] < 0), None)
            if k is None:
                break
            enter = n + k
            column = [sign[k] * scales[k] if i == k else 0 for i in range(5)]
        # zip stops at the column's 5 entries, so the rhs stays out of the dot products
        entries = [sum(g * a for g, a in zip(row, column)) for row in rows]
        # ratios rhs / entry compared by cross-multiplication (entry > 0)
        leave = None
        for r, coef in enumerate(entries):
            if coef > 0:
                if leave is None:
                    leave = r
                    continue
                here = rows[r][5] * entries[leave]
                best = rows[leave][5] * coef
                if here < best or (here == best and basis[r] < basis[leave]):
                    leave = r
        if leave is None:
            return None  # cannot happen in phase 1; defensive
        # dividing the pivot row by its entry leaves the ints over that entry
        pivot_row, pivot = _reduce(rows[leave], entries[leave])
        rows[leave], dens[leave] = pivot_row, pivot
        for r, f in enumerate(entries):
            if r != leave and f != 0:
                rows[r], dens[r] = _reduce(
                    [a * pivot - f * b for a, b in zip(rows[r], pivot_row)], dens[r] * pivot
                )
        f = sum(y * a for y, a in zip(obj, column))  # the entering reduced cost
        obj, obj_den = _reduce([a * pivot - f * b for a, b in zip(obj, pivot_row)], obj_den * pivot)
        basis[leave] = enter

    if obj[5] != 0:
        return None
    weights = [ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            weights[b] = Fraction(rows[r][5], dens[r])
    return weights


def is_achievable(region: MTRegion, target) -> AchievabilityResult:
    """Exact membership test with a Caratheodory witness of support <= 5.

    target is a quadruple (Rx, Ry, Dx, Dy) of rationals; achievable iff some
    convex combination of base points is coordinate-wise <= target.  A
    coordinate that is NaN, infinite or not a number raises InvalidArgument.
    """
    target = tuple(target)
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


def verify_witness(region: MTRegion, target, result: AchievabilityResult) -> None:
    """Check a "yes" answer of ``is_achievable`` exactly.

    Raises InvalidWitness naming the first condition that fails: the result
    carries a witness, of at most 5 weights, each > 0, summing to 1, on
    points of ``region.points`` (by identity), whose mix is <= ``target`` on
    every axis.  Cheap: linear in the witness, plus one pass over the region.
    """
    if not result.achievable or not result.witness:
        raise InvalidWitness("the result has no witness")
    witness = result.witness
    if len(witness) > 5:
        raise InvalidWitness(f"{len(witness)} weights, more than 5")
    if any(w <= 0 for w, _ in witness):
        raise InvalidWitness("a weight is not > 0")
    total = sum(w for w, _ in witness)
    if total != 1:
        raise InvalidWitness(f"the weights sum to {format_rational(total)}, not 1")
    members = {id(p) for p in region.points}
    if any(id(p) not in members for _, p in witness):
        raise InvalidWitness("a witness point is not one of the region's points")
    target = [_rational(t) for t in target]
    for k, (axis, t) in enumerate(zip(("Rx", "Ry", "Dx", "Dy"), target)):
        mix = sum(w * p.coords[k] for w, p in witness)
        if mix > t:
            raise InvalidWitness(
                f"the mix's {axis} {format_rational(mix)} exceeds the target's {format_rational(t)}"
            )


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
