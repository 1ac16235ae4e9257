"""Scalar quantizer enumeration and zero-delay rate-distortion envelopes.

A scalar encoder is a partition of the source alphabet; its rate is the
optimal RI length of the induced (cell, side information) joint, and its
distortion is that of the Bayes decoder attached to each (cell, y) pair.
``decoded_partitions`` is the one routine that merges and decodes a cloud:
the causal variant takes H(cell | Y) of the same joints, and the
encoder-side-information variant partitions the product alphabet.
``rd_points`` adds the RI rate and is the one place a cloud calls
``solve_ri``; ``multiterminal`` builds both sides of every pair with it.
The achievable tradeoff is the lower convex envelope of the finite point
cloud.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator

from .errors import BelowMinimumDistortion, EmptyInput, TooLarge
from .probability import (
    Alphabet,
    DistortionMatrix,
    JointPMF,
    TriplePMF,
    aggregate_rows,
    conditional_entropy_source_given_si,
    format_rational,
    normalized_support,
)
from .ri_codes import RIProtocol, solve_ri

PARTITION_CAP = 12  # Bell(12) ~ 4.2e6 partitions


@dataclass(frozen=True)
class Partition:
    """Set partition in restricted-growth form: cells[i] is symbol i's cell."""

    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        seen = -1
        for c in self.cells:
            if c < 0 or c > seen + 1:
                raise ValueError(f"not a restricted-growth string: {self.cells}")
            seen = max(seen, c)

    @property
    def num_cells(self) -> int:
        return max(self.cells) + 1

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_cells)]
        for i, c in enumerate(self.cells):
            out[c].append(i)
        return out

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


@dataclass(frozen=True)
class DecoderCosts:
    """Integer Bayes-decoder costs of one (pmf, distortion) pair.

    ``cost[x][y][r]`` is P(x, y) * d(x, r) times ``scale``, the product of the
    lcms of the pmf's and the distortion's denominators, and ``mass[x][y]``
    says whether P(x, y) > 0.  Built once per cloud, shared by every
    partition's decoder.
    """

    scale: int
    mass: tuple[tuple[bool, ...], ...]
    cost: tuple[tuple[tuple[int, ...], ...], ...]


def decoder_costs(pmf: JointPMF, d: DistortionMatrix) -> DecoderCosts:
    """The integer cost table of ``pmf`` under ``d``; see DecoderCosts."""
    p_scale = lcm(*(v.denominator for row in pmf.probs for v in row))
    d_scale = lcm(*(v.denominator for row in d.values for v in row))
    cost = tuple(
        tuple(
            tuple(
                p.numerator * (p_scale // p.denominator) * v.numerator * (d_scale // v.denominator)
                for v in d.values[x]
            )
            for p in row
        )
        for x, row in enumerate(pmf.probs)
    )
    mass = tuple(tuple(p > 0 for p in row) for row in pmf.probs)
    return DecoderCosts(p_scale * d_scale, mass, cost)


def optimal_decoder(
    pmf: JointPMF,
    partition: Partition,
    d: DistortionMatrix,
    costs: DecoderCosts | None = None,
) -> tuple[DecoderRule, Fraction]:
    """Bayes decoder per (cell, y) pair with exact expected distortion.

    The reproduction minimizing the posterior expected distortion is chosen;
    ties break toward the lowest reproduction index.  ``costs`` is
    ``decoder_costs(pmf, d)``, computed here when not given.
    """
    if costs is None:
        costs = decoder_costs(pmf, d)
    table: dict[tuple[int, int], int] = {}
    total = 0
    for z, members in enumerate(partition.blocks()):
        for y in range(pmf.ncols):
            rows = [costs.cost[x][y] for x in members if costs.mass[x][y]]
            if not rows:
                continue
            cell = rows[0] if len(rows) == 1 else [sum(col) for col in zip(*rows)]
            best = min(cell)
            table[(z, y)] = cell.index(best)
            total += best
    return DecoderRule(table), Fraction(total, costs.scale)


def decoded_partitions(
    pmf: JointPMF, d: DistortionMatrix
) -> Iterator[tuple[Partition, JointPMF, DecoderRule, Fraction]]:
    """Each partition of the source with its induced (cell, y) joint, Bayes
    decoder and distortion, in ``enumerate_partitions`` order; one integer
    cost table serves the whole cloud."""
    costs = decoder_costs(pmf, d)
    for partition in enumerate_partitions(pmf.source):
        decoder, distortion = optimal_decoder(pmf, partition, d, costs)
        yield partition, aggregate_rows(pmf, partition.cells), decoder, distortion


def rd_points(pmf: JointPMF, d: DistortionMatrix) -> list[QuantizerPoint]:
    """One point per partition, each with its optimal decoder.

    Rate depends on the partition alone, so non-optimal decoders only produce
    dominated points and are skipped.  The single-cell partition is always
    present and anchors the envelope at rate exactly 0.
    """
    points = []
    for partition, induced, decoder, distortion in decoded_partitions(pmf, d):
        protocol, rate = solve_ri(induced)
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
        for _, induced, _, distortion in decoded_partitions(pmf, d)
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
