"""Scalar quantizer enumeration and zero-delay rate-distortion envelopes.

A scalar encoder is a partition of the source alphabet; its rate is the
optimal RI length of the induced (cell, side information) joint, and its
distortion is that of the Bayes decoder attached to each (cell, y) pair.
``decoded_partitions`` is the one routine that merges and decodes a cloud.
It merges cells in integers and hands each partition's RI instance on as
integer weights and neighbor bitmasks; the causal variant takes H(cell | Y)
of the same joints, and the encoder-side-information variant partitions the
product alphabet.  ``rd_points`` adds the RI rate: it calls the kernel
``solve_ri_weights`` once per distinct instance of the cloud, so partitions
that induce the same weighted graph share one search.  ``multiterminal``
builds both sides of every pair with it.  The achievable tradeoff is the
lower convex envelope of the finite point cloud.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial, reduce
from math import gcd, lcm
from operator import or_
from typing import Iterator, NamedTuple

from .errors import BelowMinimumDistortion, EmptyInput, InvalidArgument, TooLarge
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

    The pmf is scaled once to integers over the lcm of its denominators; a
    cell's row is the int sum of its members' rows and, the entries being
    nonnegative, its SI support the union of theirs.  The induced joint
    holds one ``Fraction(n, scale)`` per entry, and one integer cost table
    serves every decoder.
    """
    costs = decoder_costs(pmf, d)
    scale = lcm(*(v.denominator for row in pmf.probs for v in row))
    rows = [tuple(v.numerator * (scale // v.denominator) for v in row) for row in pmf.probs]
    mass = [sum(row) for row in rows]
    si_mask = [sum(1 << y for y, v in enumerate(row) if v > 0) for row in rows]
    ratio = cache(partial(Fraction, denominator=scale))  # each Fraction(n, scale) built once
    for partition in enumerate_partitions(pmf.source):
        decoder, distortion = optimal_decoder(pmf, partition, d, costs)
        blocks = partition.blocks()
        cell_rows = (rows[ms[0]] if len(ms) == 1 else map(sum, zip(*(rows[i] for i in ms))) for ms in blocks)
        probs = tuple(tuple(map(ratio, row)) for row in cell_rows)
        induced = JointPMF(Alphabet("Z", cell_labels(pmf.source, blocks)), pmf.si, probs)
        cell_mass = [sum(mass[i] for i in ms) for ms in blocks]
        kept = tuple(z for z, m in enumerate(cell_mass) if m > 0)
        unit = gcd(*(cell_mass[z] for z in kept)) or 1  # 1 when no cell has mass
        masks = [reduce(or_, (si_mask[i] for i in blocks[z])) for z in kept]
        adjacency = tuple(
            sum(1 << b for b, other in enumerate(masks) if b != a and other & mask)
            for a, mask in enumerate(masks)
        )
        ri = RIInstance(tuple(cell_mass[z] // unit for z in kept), adjacency, kept, unit, scale)
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
