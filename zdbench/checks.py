"""Correctness checks for one job's output, run outside the timed window.

Each check raises `CheckFailed` naming the first violated property.  The
checks recompute what they can from the job's inputs with their own code
(induced joints, decoder distortions, envelope geometry, LP witnesses) and
call the library only for the independent predicates the library exports
for that purpose (`check_feasible`, `avg_length`, `huffman`,
`conditional_huffman`, `build_characteristic_graph`).
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

from zdsi import graphs, ri_codes
from zdsi.probability import JointPMF, integer_alphabet

# Streams: empirical rate and distortion must lie within this many standard
# errors of the schedule's exact expectation.
STREAM_SIGMAS = 5
# Sequential: an estimate may fall below pc_lower_bound by at most this many
# half-widths (one binomial standard error, floored at 1/trials).
SEQ_HALF_WIDTHS = 4


class CheckFailed(Exception):
    """A job's output violates a property the benchmark checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- single user


def _lcm_scale(values) -> int:
    scale = 1
    for v in values:
        scale = math.lcm(scale, Fraction(v).denominator)
    return scale


class QuantizerCheck:
    """Checks the RI protocol and Bayes decoder of each partition's point.

    rows[i][y] is P(i, y) over the rows the partitions cover; dvals[i][r] is
    d(i, r) lifted to those rows.  Sums run over integers scaled by the
    common denominators, so they are exact and cheap.
    """

    def __init__(self, rows, dvals):
        self.scale = _lcm_scale(v for row in rows for v in row)
        self.dscale = _lcm_scale(v for row in dvals for v in row)
        self.rows = [[int(v * self.scale) for v in row] for row in rows]
        self.dvals = [[int(v * self.dscale) for v in row] for row in dvals]

    def __call__(self, point) -> None:
        cells = point.partition.cells
        label = point.partition.to_string()
        k, m = max(cells) + 1, len(self.rows[0])
        induced = [[0] * m for _ in range(k)]
        for i, c in enumerate(cells):
            for y, v in enumerate(self.rows[i]):
                induced[c][y] += v
        require(
            [[v * self.scale for v in row] for row in point.induced.probs] == induced,
            f"{label}: induced joint differs from the merged rows",
        )
        joint = JointPMF(
            integer_alphabet("Z", k),
            integer_alphabet("Y", m),
            tuple(tuple(Fraction(v, self.scale) for v in row) for row in induced),
        )
        words = point.protocol.codewords
        require(len(words) == k, f"{label}: {len(words)} codewords for {k} cells")
        g = graphs.build_characteristic_graph(joint)
        require(ri_codes.check_feasible(words, g), f"{label}: protocol infeasible on the induced graph")
        p_cell = [Fraction(sum(row), self.scale) for row in induced]
        length = ri_codes.avg_length(words, p_cell)
        require(length == point.rate, f"{label}: avg_length {length} != rate {point.rate}")
        require(
            point.protocol.average_length == point.rate,
            f"{label}: protocol length {point.protocol.average_length} != rate {point.rate}",
        )
        lower = ri_codes.conditional_huffman(joint)
        positive = [w for w in p_cell if w > 0]
        upper = ri_codes.huffman([w / sum(positive) for w in positive])[1] if len(positive) > 1 else 0
        require(lower <= point.rate <= upper, f"{label}: rate {point.rate} outside [{lower}, {upper}]")

        table = point.decoder.table
        pairs = {(z, y) for z in range(k) for y in range(m) if induced[z][y] > 0}
        require(set(table) == pairs, f"{label}: decoder table keys differ from the positive (cell, y) pairs")
        members = [[] for _ in range(k)]
        for i, c in enumerate(cells):
            members[c].append(i)
        nrep = len(self.dvals[0])
        total = 0
        for z, y in pairs:
            costs = [sum(self.rows[i][y] * self.dvals[i][r] for i in members[z]) for r in range(nrep)]
            chosen = costs[table[(z, y)]]
            require(chosen == min(costs), f"{label}: decoder at ({z},{y}) is not Bayes-optimal")
            total += chosen
        recomputed = Fraction(total, self.scale * self.dscale)
        require(recomputed == point.distortion, f"{label}: distortion {point.distortion} != recomputed {recomputed}")


def envelope_value(vertices, d):
    """Piecewise-linear envelope value at d >= the first vertex's distortion."""
    if d >= vertices[-1][0]:
        return vertices[-1][1]
    for (d1, r1), (d2, r2) in zip(vertices, vertices[1:]):
        if d1 <= d <= d2:
            return r1 + (r2 - r1) * (d - d1) / (d2 - d1)
    raise CheckFailed(f"distortion {d} left of the envelope")


def check_envelope(vertices, pairs) -> None:
    """Convex, decreasing, ends at R = 0, and lies under every cloud pair."""
    require(len(vertices) >= 1, "empty envelope")
    for (d1, r1), (d2, r2) in zip(vertices, vertices[1:]):
        require(d1 < d2 and r2 < r1, f"envelope not decreasing at D={d1}")
    for (d1, r1), (d2, r2), (d3, r3) in zip(vertices, vertices[1:], vertices[2:]):
        cross = (d2 - d1) * (r3 - r1) - (r2 - r1) * (d3 - d1)
        require(cross > 0, f"envelope not convex at D={d2}")
    require(vertices[-1][1] == 0, f"envelope ends at R={vertices[-1][1]}, not 0")
    require(vertices[0][0] == min(d for d, _ in pairs), "first vertex is not the least distortion")
    pair_set = set(pairs)
    for v in vertices:
        require(v in pair_set, f"vertex {v} is not a cloud point")
    for d, r in pairs:
        require(r >= envelope_value(vertices, d), f"cloud point ({d}, {r}) lies below the envelope")


def check_plan(plan, vertices, target) -> None:
    lam = plan.lambda_weight
    require(0 < lam <= 1, f"lambda {lam} outside (0, 1]")
    d1, r1 = plan.point1.distortion, plan.point1.rate
    d2, r2 = plan.point2.distortion, plan.point2.rate
    require((d1, r1) in vertices and (d2, r2) in vertices, "plan points are not envelope vertices")
    if target >= vertices[-1][0]:
        # beyond the zero-rate vertex one quantizer is enough
        require(lam == 1 and (d1, r1) == vertices[-1], "plan beyond the last vertex is not that vertex")
        return
    mix = lam * d1 + (1 - lam) * d2
    require(mix == target, f"plan mixes to D={mix}, target {target}")
    require(plan.distortion == target, f"plan distortion {plan.distortion} != target {target}")
    expected = envelope_value(vertices, target)
    require(plan.rate == expected, f"plan rate {plan.rate} != envelope {expected}")


def check_curve_csv(text: str, vertices) -> None:
    lines = text.split("\n")
    require(lines[0] == "D_num,D_den,R_num,R_den", "CSV header")
    require(len(lines) == len(vertices) + 1, "CSV row count")
    for line, (d, r) in zip(lines[1:], vertices):
        cells = line.split(",")
        got = (Fraction(int(cells[0]), int(cells[1])), Fraction(int(cells[2]), int(cells[3])))
        require(got == (d, r), f"CSV row {line!r} != vertex")


# --------------------------------------------------------------- multiterminal


def check_witness(result, target, region) -> None:
    require(result.achievable, "achievable target reported unachievable")
    witness = result.witness
    require(witness is not None and 1 <= len(witness) <= 5, "witness support outside 1..5")
    ids = {id(p) for p in region.points}
    weights = [w for w, _ in witness]
    require(all(w > 0 for w in weights), "witness weight not positive")
    require(sum(weights, Fraction(0)) == 1, f"witness weights sum to {sum(weights)}")
    require(all(id(p) in ids for _, p in witness), "witness point not in the region")
    for k in range(4):
        mix = sum((w * p.coords[k] for w, p in witness), Fraction(0))
        require(mix <= target[k], f"witness mix exceeds the target on coordinate {k}")


def check_certificate(result, target, c, region) -> None:
    require(not result.achievable and result.witness is None, "unachievable target reported achievable")
    bound = min(sum((ck * pk for ck, pk in zip(c, p.coords)), Fraction(0)) for p in region.points)
    value = sum((ck * tk for ck, tk in zip(c, target)), Fraction(0))
    require(all(ck >= 0 for ck in c) and value < bound, "separating hyperplane does not certify the target")


# ------------------------------------------------------------------ streaming


def point_moments(point, pmf, dvals) -> tuple[float, float, float, float]:
    """Mean and variance of bits and distortion per symbol for one quantizer."""
    cells, words, table = point.partition.cells, point.protocol.codewords, point.decoder.table
    eb = eb2 = ed = ed2 = 0.0
    for x, row in enumerate(pmf.probs):
        px = float(sum(row, Fraction(0)))
        bits = len(words[cells[x]])
        eb += px * bits
        eb2 += px * bits * bits
        for y, v in enumerate(row):
            if v > 0:
                dist = float(dvals[x][table[(cells[x], y)]])
                ed += float(v) * dist
                ed2 += float(v) * dist * dist
    return eb, eb2 - eb * eb, ed, ed2 - ed * ed


def check_stream(report, plan, pmf, n: int) -> None:
    require(report.n == n and report.sync_errors == 0, "stream lost sync or length")
    dvals = plan.point1.dmat.values
    k = plan.stages_of_first(n)
    m1, m2 = point_moments(plan.point1, pmf, dvals), point_moments(plan.point2, pmf, dvals)
    for what, idx, got in (("rate", 0, report.rate), ("distortion", 2, report.distortion)):
        mean = (k * m1[idx] + (n - k) * m2[idx]) / n
        sd = math.sqrt(k * m1[idx + 1] + (n - k) * m2[idx + 1]) / n
        require(
            abs(got - mean) <= STREAM_SIGMAS * sd + 1e-12,
            f"stream {what} {got} is {abs(got - mean) / max(sd, 1e-300):.1f} SE from {mean}",
        )
    plan_rate = float(plan.rate)
    sched_rate = (k * m1[0] + (n - k) * m2[0]) / n
    require(
        abs(sched_rate - plan_rate) <= abs(m1[0] - m2[0]) / n + 1e-12,
        "schedule rate differs from the plan rate",
    )


def check_sequential(estimate: float, half_width: float, trials: int, bound: float) -> None:
    tol = SEQ_HALF_WIDTHS * max(half_width, 1.0 / max(trials, 1))
    require(estimate >= bound - tol, f"estimate {estimate} below the bound {bound} by more than {tol}")


# -------------------------------------------------------------------- digests


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
