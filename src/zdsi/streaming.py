"""Bit-exact streaming codec: time-sharing two side-information-aware quantizers.

The encoder runs quantizer 1 for the first ceil(lambda * n) stages and
quantizer 2 for the rest, emitting each cell's RI codeword onto one flat
bitstream with no framing.  The decoder, knowing the schedule and its SI
symbol, parses instantaneously: it reads bits until the consumed string
equals the codeword of exactly one cell that has positive probability with
the observed y.  RI feasibility guarantees this always happens within the
longest candidate length; anything else is a SyncLoss contract violation.

`run_simulation` checks a whole run without stepping: in sync, the bits
past the decoder's cursor are exactly the current codeword, so each step's
parse is one of |X| x |Y| outcomes per quantizer, tabulated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

import numpy as np

from .errors import BelowMinimumDistortion, DomainError, SyncLoss
from .probability import JointPMF, sample_iid
from .quantizers import QuantizerPoint, RDCurve


@dataclass(frozen=True)
class TimeSharePlan:
    """Two quantizer points and the exact mixing weight on the first.

    lambda_weight * D1 + (1 - lambda_weight) * D2 equals the target
    distortion; the schedule k_n = ceil(lambda * n) is shared by both sides,
    so no signaling is spent on it.
    """

    point1: QuantizerPoint
    point2: QuantizerPoint
    lambda_weight: Fraction

    @property
    def rate(self) -> Fraction:
        return (
            self.lambda_weight * self.point1.rate
            + (1 - self.lambda_weight) * self.point2.rate
        )

    @property
    def distortion(self) -> Fraction:
        return (
            self.lambda_weight * self.point1.distortion
            + (1 - self.lambda_weight) * self.point2.distortion
        )

    def stages_of_first(self, n: int) -> int:
        return min(n, ceil(self.lambda_weight * n))


@dataclass(frozen=True)
class SimReport:
    """Outcome of one streaming run; sync_errors is 0 for any feasible plan."""

    n: int
    total_bits: int
    rate: float
    distortion: float
    sync_errors: int
    trace: tuple | None = None

    def csv_row(self) -> str:
        return f"{self.n},{self.total_bits},{self.rate!r},{self.distortion!r},{self.sync_errors}"


def build_plan(curve: RDCurve, cloud, target_d) -> TimeSharePlan:
    """Pick the envelope vertices bracketing the target distortion.

    On a vertex (or beyond the zero-rate point) a single quantizer suffices
    and lambda is 1.  Below the leftmost vertex no plan exists.
    """
    target_d = Fraction(target_d)
    vertices = curve.vertices
    if target_d < vertices[0][0]:
        raise BelowMinimumDistortion(
            f"target {target_d} below minimum achievable {vertices[0][0]}"
        )

    def point_at(dd, rr) -> QuantizerPoint:
        for p in cloud:
            if p.distortion == dd and p.rate == rr:
                return p
        raise ValueError(f"no cloud point at (D={dd}, R={rr})")

    if target_d >= vertices[-1][0]:
        p = point_at(*vertices[-1])
        return TimeSharePlan(p, p, Fraction(1))
    for (d1, r1), (d2, r2) in zip(vertices, vertices[1:]):
        if d1 <= target_d <= d2:
            if target_d == d1:
                p = point_at(d1, r1)
                return TimeSharePlan(p, p, Fraction(1))
            if target_d == d2:
                p = point_at(d2, r2)
                return TimeSharePlan(p, p, Fraction(1))
            lam = (Fraction(d2) - target_d) / (Fraction(d2) - Fraction(d1))
            return TimeSharePlan(point_at(d1, r1), point_at(d2, r2), lam)
    raise AssertionError("unreachable: envelope vertices not ordered")


class _Codec:
    """Per-quantizer lookup tables shared by the encoder and decoder."""

    def __init__(self, point: QuantizerPoint):
        self.cells = point.partition.cells
        self.codewords = point.protocol.codewords
        induced = point.induced
        self.per_y: list[dict[str, int]] = []
        self.max_len: list[int] = []
        for y in range(induced.ncols):
            table = {
                self.codewords[z]: z
                for z in range(induced.nrows)
                if induced.probs[z][y] > 0
            }
            self.per_y.append(table)
            self.max_len.append(max((len(w) for w in table), default=0))
        self.decoder = point.decoder

    def parse(self, bits, start: int, y: int) -> tuple[int, int] | None:
        """Read bits from `start` until they spell a candidate codeword for y.

        Returns (cell, bits used), or None when the bits run out or pass the
        longest candidate first.
        """
        table = self.per_y[y]
        word = ""
        while word not in table:
            if len(word) >= self.max_len[y] or start + len(word) >= len(bits):
                return None
            word += bits[start + len(word)]
        return table[word], len(word)


class StreamEncoder:
    """Causal encoder: emits the scheduled quantizer's codeword for f_i(x_t)."""

    def __init__(self, plan: TimeSharePlan, n: int):
        self._codecs = (_Codec(plan.point1), _Codec(plan.point2))
        self._k = plan.stages_of_first(n)
        self.t = 0

    def encode_step(self, x: int) -> str:
        codec = self._codecs[0] if self.t < self._k else self._codecs[1]
        self.t += 1
        return codec.codewords[codec.cells[x]]


class StreamDecoder:
    """Causal decoder: parses the bitstream by shortest consistent codeword."""

    def __init__(self, plan: TimeSharePlan, n: int):
        self._codecs = (_Codec(plan.point1), _Codec(plan.point2))
        self._k = plan.stages_of_first(n)
        self.t = 0
        self.cursor = 0

    def decode_step(self, stream, y: int) -> tuple[int, int]:
        """Consume bits for one symbol; returns (reproduction index, bits used)."""
        codec = self._codecs[0] if self.t < self._k else self._codecs[1]
        self.t += 1
        parsed = codec.parse(stream, self.cursor, y)
        if parsed is None:
            raise SyncLoss(f"no candidate codeword matches at t={self.t - 1}, y={y}")
        z, used = parsed
        self.cursor += used
        return codec.decoder(z, y), used


def _step_table(pmf: JointPMF, codec: _Codec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What one in-sync step of a quantizer does, per source x and SI y.

    Returns the length of x's codeword, shape (|X|,), and for each (x, y) of
    positive probability the bits the decoder's parse consumes reading that
    codeword given y and the reproduction it decodes, shape (|X|, |Y|).
    Pairs of zero probability are never drawn; their entries are 0.
    """
    length = np.zeros(pmf.nrows, dtype=np.intp)
    used = np.zeros((pmf.nrows, pmf.ncols), dtype=np.intp)
    xhat = np.zeros_like(used)
    for x in range(pmf.nrows):
        word = codec.codewords[codec.cells[x]]
        length[x] = len(word)
        for y in range(pmf.ncols):
            if pmf.probs[x][y] > 0:
                # x's own codeword is a candidate given y: the parse stops
                z, used[x, y] = codec.parse(word, 0, y)
                xhat[x, y] = codec.decoder(z, y)
    return length, used, xhat


def run_simulation(
    pmf: JointPMF, plan: TimeSharePlan, n: int, seed: int, trace: bool = False
) -> SimReport:
    """Drive n i.i.d. pairs through the codec, verifying bit-exact sync.

    The decoder must consume exactly the emitted bit count at every stage;
    the first stage where it does not raises SyncLoss rather than being
    tallied.  Distortion is measured with the distortion matrix the plan's
    points were built with.

    The check is tabulated, not stepped.  While the decoder is in sync its
    cursor sits at the start of the current codeword and the stream holds
    exactly that codeword past it, so the step's parse depends only on
    (quantizer, x, y); by induction over t, parsing each codeword on its own
    reproduces the sequential cursor up to the first mismatch.  Each parse
    runs once per alphabet pair and is gathered over the n samples.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    pairs = sample_iid(pmf, n, seed)
    dmat = plan.point1.dmat
    dfloat = np.array([[float(v) for v in row] for row in dmat.values])
    source_rows = np.arange(pmf.nrows)[:, None]
    k = plan.stages_of_first(n)
    dist = np.empty(n)
    total_bits = 0
    rows: list[tuple] = []
    for point, start, stop in ((plan.point1, 0, k), (plan.point2, k, n)):
        codec = _Codec(point)
        length, used, xhat = _step_table(pmf, codec)
        xs, ys = pairs[start:stop, 0], pairs[start:stop, 1]
        lost = np.flatnonzero((used != length[:, None])[xs, ys])
        if lost.size:
            t = int(lost[0])
            x, y = xs[t], ys[t]
            raise SyncLoss(f"decoder consumed {used[x, y]} bits of {length[x]} at t={start + t}")
        total_bits += int(np.bincount(xs, minlength=pmf.nrows) @ length)
        dist[start:stop] = dfloat[source_rows, xhat][xs, ys]
        if trace:
            xhat_rows = xhat.tolist()
            rows.extend(
                (
                    start + t,
                    pmf.source.symbols[x],
                    pmf.si.symbols[y],
                    codec.codewords[codec.cells[x]],
                    dmat.reproduction.symbols[xhat_rows[x][y]],
                )
                for t, (x, y) in enumerate(zip(xs.tolist(), ys.tolist()))
            )
    # cumsum adds in sample order, as the running sum of a step loop does
    dist_sum = float(np.cumsum(dist, out=dist)[-1])
    return SimReport(
        n=n,
        total_bits=total_bits,
        rate=total_bits / n,
        distortion=dist_sum / n,
        sync_errors=0,
        trace=tuple(rows) if trace else None,
    )


def export_trace_csv(pmf: JointPMF, plan: TimeSharePlan, report: SimReport) -> str:
    """Per-symbol trace CSV "t,x,y,z,codeword,xhat"."""
    if report.trace is None:
        raise ValueError("simulation was run without trace=True")
    k = plan.stages_of_first(report.n)
    lines = ["t,x,y,z,codeword,xhat"]
    for t, x, y, word, xhat in report.trace:
        point = plan.point1 if t < k else plan.point2
        z = point.partition.cells[pmf.source.symbols.index(x)]
        label = point.induced.source.symbols[z]
        lines.append(f"{t},{x},{y},{label},{word or 'ε'},{xhat}")
    return "\n".join(lines)
