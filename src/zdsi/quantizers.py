"""Scalar quantizer enumeration and zero-delay rate-distortion envelopes.

A scalar encoder is a partition of the source alphabet; its rate is the
optimal RI length of the induced (cell, side information) joint, and its
distortion is that of the Bayes decoder attached to each (cell, y) pair.
Both depend only on each cell's merged row, so a cloud merges each distinct
cell once, in integers, keyed by its member set, into its SI support and its
Bayes reproduction and integer cost per y.  ``decoded_partitions`` builds
every partition, and its RI instance as integer weights and neighbor
bitmasks, from those cells; ``optimal_decoder`` reads the same cells.  The
causal variant takes H(cell | Y) of the same joints, and the
encoder-side-information variant partitions the product alphabet.
``rd_points`` adds the RI rate: it calls the kernel ``solve_ri_weights``
once per distinct instance of the cloud, so partitions that induce the same
weighted graph share one search.  ``multiterminal`` builds both sides of
every pair with it.  The achievable tradeoff is the lower convex envelope of
the finite point cloud.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from math import gcd, lcm
from typing import Iterator, NamedTuple

from .errors import BelowMinimumDistortion, EmptyInput, InvalidArgument, TooLarge
from .graphs import _neighbor_masks
from .probability import (
    Alphabet,
    DistortionMatrix,
    JointPMF,
    TriplePMF,
    cell_labels,
    conditional_entropy_source_given_si,
    format_rational,
    marginal_source,
    normalized_support,
)
from .ri_codes import DEFAULT_SYMBOL_CAP, RIProtocol, solve_ri_weights

PARTITION_CAP = 12  # Bell(12) ~ 4.2e6 partitions


@dataclass(frozen=True)
class Partition:
    """Set partition in restricted-growth form: cells[i] is symbol i's cell."""

    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        seen = -1
        for c in self.cells:
            if c < 0 or c > seen + 1:
                raise InvalidArgument(f"not a restricted-growth string: {self.cells}")
            seen = max(seen, c)

    @property
    def num_cells(self) -> int:
        return max(self.cells) + 1

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_cells)]
        for i, c in enumerate(self.cells):
            out[c].append(i)
        return out

    @cached_property
    def _blocks(self) -> tuple[tuple[int, ...], ...]:
        """``blocks()`` as tuples, worked out once per partition."""
        return tuple(map(tuple, self.blocks()))

    def to_string(self) -> str:
        return "-".join(str(c) for c in self.cells)


@dataclass(frozen=True)
class DecoderRule:
    """Reproduction index per (cell, SI) pair of positive induced probability."""

    table: dict[tuple[int, int], int]

    def __call__(self, cell: int, y: int) -> int:
        return self.table[(cell, y)]


@dataclass(frozen=True, slots=True)
class QuantizerPoint:
    """One partition with its optimal decoder, exact rate and distortion."""

    partition: Partition
    decoder: DecoderRule
    rate: Fraction
    distortion: Fraction
    protocol: RIProtocol
    induced: JointPMF
    dmat: DistortionMatrix


@dataclass(frozen=True)
class RDCurve:
    """Piecewise-linear convex nonincreasing envelope; vertices (D, R)."""

    vertices: tuple[tuple[Fraction, object], ...]

    def query(self, d) -> object:
        """Envelope value at distortion d; exact interpolation on exact curves."""
        d = Fraction(d) if not isinstance(d, float) else d
        first_d = self.vertices[0][0]
        if d < first_d:
            raise BelowMinimumDistortion(
                f"distortion {d} below the minimum achievable {first_d}"
            )
        if d >= self.vertices[-1][0]:
            return self.vertices[-1][1]
        for (d1, r1), (d2, r2) in zip(self.vertices, self.vertices[1:]):
            if d1 <= d <= d2:
                return r1 + (r2 - r1) * (d - d1) / (d2 - d1)
        raise AssertionError("unreachable: vertices not ordered")


def enumerate_partitions(alphabet) -> Iterator[Partition]:
    """All set partitions of the alphabet, restricted-growth lexicographic.

    Starts at the single-cell partition and ends at the all-singletons one;
    yields Bell(n) partitions.  Guarded at 12 symbols.
    """
    n = alphabet if isinstance(alphabet, int) else len(alphabet)
    if n > PARTITION_CAP:
        raise TooLarge(f"{n} symbols exceeds the partition cap {PARTITION_CAP}")
    if n == 0:
        return
    a = [0] * n
    while True:
        yield Partition(tuple(a))
        # lexicographic successor: bump the rightmost position below its prefix max + 1
        i = n - 1
        while i > 0:
            prefix_max = max(a[:i])
            if a[i] <= prefix_max:
                a[i] += 1
                for j in range(i + 1, n):
                    a[j] = 0
                break
            i -= 1
        else:
            return


class _Cell(NamedTuple):
    """A merged cell; ``decode`` holds (y, Bayes reproduction, its integer cost)."""

    row: tuple[int, ...]
    mass: int
    si: int
    decode: tuple[tuple[int, int, int], ...]


class _Cells(dict):
    """A cloud's cell routine: ``cells[members]`` is the cell of a member
    tuple, merged on first use.  Masses are integers over ``unit``, the pmf's
    lcm, and costs over ``scale``, ``unit`` times the distortion's lcm."""

    def __init__(self, pmf: JointPMF, d: DistortionMatrix) -> None:
        self.unit = lcm(*(v.denominator for row in pmf.probs for v in row))
        d_unit = lcm(*(v.denominator for row in d.values for v in row))
        self.scale = self.unit * d_unit
        self.rows = [tuple(v.numerator * (self.unit // v.denominator) for v in row) for row in pmf.probs]
        self.dist = [tuple(v.numerator * (d_unit // v.denominator) for v in row) for row in d.values]

    def __missing__(self, members: tuple[int, ...]) -> _Cell:
        """r costs sum_x rows[x][y] * dist[x][r] at y; ties go to the lowest r."""
        rows, dist = self.rows, self.dist
        row = tuple(map(sum, zip(*(rows[x] for x in members))))
        reps = range(len(dist[0]))
        costs = {y: [sum(rows[x][y] * dist[x][r] for x in members) for r in reps] for y, p in enumerate(row) if p}
        decode = tuple((y, c.index(min(c)), min(c)) for y, c in costs.items())
        cell = self[members] = _Cell(row, sum(row), sum(1 << y for y in costs), decode)
        return cell


def optimal_decoder(
    pmf: JointPMF,
    partition: Partition,
    d: DistortionMatrix,
    cells: _Cells | None = None,
) -> tuple[DecoderRule, Fraction]:
    """Bayes decoder per (cell, y) pair with exact expected distortion.

    The reproduction minimizing the posterior expected distortion is chosen;
    ties break toward the lowest reproduction index.  ``cells`` is the
    cloud's cell routine, built here when not given.
    """
    if cells is None:
        cells = _Cells(pmf, d)
    table: dict[tuple[int, int], int] = {}
    total = 0
    for z, members in enumerate(partition._blocks):
        for y, r, cost in cells[members].decode:
            table[(z, y)] = r
            total += cost
    return DecoderRule(table), Fraction(total, cells.scale)


class RIInstance(NamedTuple):
    """The RI problem of one induced (cell, y) joint, in integers.

    ``weights`` are the primitive integer masses of the positive-mass cells
    ``kept`` (cell indices, ascending) and ``adjacency`` their neighbor
    bitmasks in the characteristic graph; one unit of weight has
    probability ``unit / scale``.  (weights, adjacency) alone fixes the
    solver's words.
    """

    weights: tuple[int, ...]
    adjacency: tuple[int, ...]
    kept: tuple[int, ...]
    unit: int
    scale: int


def decoded_partitions(
    pmf: JointPMF, d: DistortionMatrix
) -> Iterator[tuple[Partition, JointPMF, DecoderRule, Fraction, RIInstance]]:
    """Each partition of the source with its induced (cell, y) joint, Bayes
    decoder, distortion and RI instance, in ``enumerate_partitions`` order.

    Every cell is merged once per cloud, in integers, by the cell routine
    that ``optimal_decoder`` also reads.  The induced joint holds one
    ``Fraction(n, unit)`` per entry, and the RI adjacency comes from the
    cells' SI bitmasks through ``graphs``' confusability rule.
    """
    cells = _Cells(pmf, d)
    ratio = cache(partial(Fraction, denominator=cells.unit))  # each Fraction(n, unit) built once
    for partition in enumerate_partitions(pmf.source):
        decoder, distortion = optimal_decoder(pmf, partition, d, cells)
        merged = [cells[members] for members in partition._blocks]
        probs = tuple(tuple(map(ratio, c.row)) for c in merged)
        induced = JointPMF(Alphabet("Z", cell_labels(pmf.source, partition._blocks)), pmf.si, probs)
        kept = tuple(z for z, c in enumerate(merged) if c.mass)
        unit = gcd(*(merged[z].mass for z in kept)) or 1  # 1 when no cell has mass
        adjacency = _neighbor_masks([merged[z].si for z in kept])
        ri = RIInstance(tuple(merged[z].mass // unit for z in kept), adjacency, kept, unit, cells.unit)
        yield partition, induced, decoder, distortion, ri


def rd_points(pmf: JointPMF, d: DistortionMatrix) -> list[QuantizerPoint]:
    """One point per partition, each with its optimal decoder.

    Rate depends on the partition alone, so non-optimal decoders only produce
    dominated points and are skipped.  The single-cell partition is always
    present and anchors the envelope at rate exactly 0.  Partitions with
    the same RI instance share one solve, memoised within the call.  Raises
    TooLarge before enumerating when the all-singletons partition, whose
    support is the source's, would exceed the RI cap.
    """
    return _rd_points(pmf, d, {})


def _rd_points(pmf: JointPMF, d: DistortionMatrix, solved: dict) -> list[QuantizerPoint]:
    """``rd_points`` with the caller's RI memo, keyed on (weights, adjacency);
    the instance alone fixes the words, so clouds of one caller may share it."""
    support = sum(1 for m in marginal_source(pmf) if m > 0)
    if support > DEFAULT_SYMBOL_CAP:
        raise TooLarge(
            f"{support} supported symbols exceeds the exactness cap {DEFAULT_SYMBOL_CAP}"
        )
    points = []
    for partition, induced, decoder, distortion, ri in decoded_partitions(pmf, d):
        key = (ri.weights, ri.adjacency)
        if key not in solved:
            solved[key] = solve_ri_weights(*key)
        words, best = solved[key]
        codewords = [""] * induced.nrows
        for local, cell in enumerate(ri.kept):
            codewords[cell] = words[local]
        rate = Fraction(best * ri.unit, ri.scale)
        protocol = RIProtocol(tuple(codewords), rate)
        points.append(QuantizerPoint(partition, decoder, rate, distortion, protocol, induced, d))
    return points


def lower_convex_envelope(points) -> RDCurve:
    """Lower-left convex hull of an (R, D) cloud after Pareto filtering."""
    pairs = [
        (p.distortion, p.rate) if isinstance(p, QuantizerPoint) else (p[0], p[1])
        for p in points
    ]
    if not pairs:
        raise EmptyInput("no points to take an envelope of")
    pairs.sort(key=lambda t: (t[0], t[1]))
    staircase: list[tuple] = []
    for dd, rr in pairs:
        if not staircase or rr < staircase[-1][1]:
            staircase.append((dd, rr))
    hull: list[tuple] = []
    for pt in staircase:
        while len(hull) >= 2:
            (d1, r1), (d2, r2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (d2 - d1) * (pt[1] - r1) - (r2 - r1) * (pt[0] - d1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return RDCurve(tuple(hull))


def causal_rd_curve(pmf: JointPMF, d: DistortionMatrix) -> RDCurve:
    """Envelope of the causal cloud: rate functional H(cell | Y), binary64.

    Distortions stay exact; rates are floats because entropies are
    irrational, so downstream comparisons carry a 1e-9 tolerance.
    """
    return lower_convex_envelope([
        (distortion, conditional_entropy_source_given_si(induced))
        for _, induced, _, distortion, _ in decoded_partitions(pmf, d)
    ])


def encoder_si_points(triple: TriplePMF, d: DistortionMatrix) -> list[QuantizerPoint]:
    """Quantizer cloud for an encoder observing (X, S), axes (S, X, Y).

    The encoder partitions the product alphabet X x S restricted to its
    support; distortion is measured on X alone through the decoder h(cell, y).
    """
    s_alpha, x_alpha, y_alpha = triple.alphabets
    labels = []
    rows = []
    x_of = []
    for x in range(len(x_alpha)):
        for s in range(len(s_alpha)):
            labels.append(f"{x_alpha.symbols[x]}|{s_alpha.symbols[s]}")
            rows.append(tuple(triple.probs[s][x][y] for y in range(len(y_alpha))))
            x_of.append(x)
    product_pmf = JointPMF(Alphabet("XS", tuple(labels)), y_alpha, tuple(rows))
    support, kept = normalized_support(product_pmf)
    x_of = [x_of[i] for i in kept]
    if support.nrows > PARTITION_CAP:
        raise TooLarge(
            f"{support.nrows} supported (x, s) pairs exceeds the partition cap "
            f"{PARTITION_CAP}"
        )
    # distortion matrix lifted to product rows so the Bayes decoder applies as is
    lifted = DistortionMatrix(
        support.source,
        d.reproduction,
        tuple(tuple(d(x_of[i], r) for r in range(len(d.reproduction))) for i in range(support.nrows)),
    )
    return rd_points(support, lifted)


def encoder_si_rd_curve(triple: TriplePMF, d: DistortionMatrix) -> RDCurve:
    return lower_convex_envelope(encoder_si_points(triple, d))


def export_curve_csv(curve: RDCurve, exact: bool = True) -> str:
    """CSV text: exact "D_num,D_den,R_num,R_den" or binary64 "D,R"."""
    if exact:
        lines = ["D_num,D_den,R_num,R_den"]
        for dd, rr in curve.vertices:
            dd, rr = Fraction(dd), Fraction(rr)
            lines.append(f"{dd.numerator},{dd.denominator},{rr.numerator},{rr.denominator}")
    else:
        lines = ["D,R"]
        for dd, rr in curve.vertices:
            lines.append(f"{float(dd)!r},{float(rr)!r}")
    return "\n".join(lines)


def export_points_csv(points: list[QuantizerPoint]) -> str:
    """Point cloud CSV with partition strings and decoder tables."""
    lines = ["partition,rate,distortion,decoder"]
    for p in points:
        decoder = ";".join(
            f"{z}.{y}->{p.dmat.reproduction.symbols[r]}"
            for (z, y), r in sorted(p.decoder.table.items())
        )
        lines.append(
            f"{p.partition.to_string()},{format_rational(p.rate)},"
            f"{format_rational(p.distortion)},{decoder}"
        )
    return "\n".join(lines)
