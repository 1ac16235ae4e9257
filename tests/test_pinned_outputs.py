"""Pinned outputs of the quantizer cloud and the multiterminal region.

Every partition of a fixed set of problems is reduced to one text line
(partition, RI codewords, rate, sorted decoder table, distortion) and the
lines are hashed.  The digest below was recorded once with the original
Fraction-arithmetic solvers; any faster kernel must reproduce it byte for
byte, so a change that returns a different (even equally optimal) codeword
assignment or breaks a decoder tie differently fails here.

The region digest does the same for every multiterminal base point (order,
both partitions, both decoder tables in insertion order, coordinates) and
for the membership answers and full witnesses of seeded targets; it was
recorded with the Fraction-tableau simplex and the per-pair decoders.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from zdsi.fixtures import c6, fully_connected_example, mt_binary, pentagon, split_cell_channel
from zdsi.multiterminal import build_region, is_achievable
from zdsi.probability import (
    Alphabet,
    JointPMF,
    TriplePMF,
    distortion_matrix,
    format_rational,
    hamming,
    integer_alphabet,
    typewriter,
)
from zdsi.quantizers import (
    causal_rd_curve,
    encoder_si_points,
    lower_convex_envelope,
    rd_points,
)
from zdsi.ri_codes import solve_ri

CLOUD_DIGEST = "0b562bac2f41a65c0496d7932d09890c582efca72c0826a38555478b522d8ac4"
REGION_DIGEST = "de794f31ef02ca01dc06b6b0785bc56e7138a3ea7e8d3cda393893a36828540f"


def _random_problem(rng: random.Random, nx: int):
    """Joint with 2-4 SI columns and either Hamming or a rational distortion.

    The rational distortion has denominators unrelated to the pmf's and a
    reproduction alphabet of a different size, so decoder ties and the
    integer scaling of both factors are exercised.
    """
    ny = rng.randint(2, 4)
    while True:
        weights = [[rng.choice([0, 0, 1, 2, 3, 5]) for _ in range(ny)] for _ in range(nx)]
        if all(any(row) for row in weights):
            break
    total = sum(map(sum, weights))
    pmf = JointPMF(
        integer_alphabet("X", nx),
        integer_alphabet("Y", ny),
        tuple(tuple(Fraction(w, total) for w in row) for row in weights),
    )
    if rng.random() < 0.5:
        return pmf, hamming(pmf.source)
    nrep = rng.randint(2, 4)
    rows = [
        [Fraction(rng.choice([0, 1, 1, 2, 3]), rng.choice([1, 2, 3, 7])) for _ in range(nrep)]
        for _ in range(nx)
    ]
    return pmf, distortion_matrix(pmf.source, integer_alphabet("R", nrep), rows)


def _encoder_si_triple() -> TriplePMF:
    """Axes (S, X, Y): 2 x 3 x 3 with 5 supported (x, s) pairs."""
    weights = (
        ((2, 1, 0), (0, 3, 1), (1, 0, 0)),
        ((0, 0, 0), (1, 0, 2), (0, 1, 3)),
    )
    total = sum(v for plane in weights for row in plane for v in row)
    probs = tuple(
        tuple(tuple(Fraction(v, total) for v in row) for row in plane) for plane in weights
    )
    return TriplePMF(
        (integer_alphabet("S", 2), integer_alphabet("X", 3), integer_alphabet("Y", 3)),
        probs,
    )


def _point_line(name: str, point) -> str:
    table = ";".join(f"{z}.{y}>{r}" for (z, y), r in sorted(point.decoder.table.items()))
    return "|".join(
        (
            name,
            point.partition.to_string(),
            ",".join(point.protocol.codewords),
            format_rational(point.rate),
            table,
            format_rational(point.distortion),
        )
    )


def cloud_lines() -> list[str]:
    problems = [
        ("pentagon", *pentagon()),
        ("c6", *c6()),
        ("fc5", *fully_connected_example(5, "3/10")),
        ("split", *split_cell_channel("1/4")),
    ]
    rng = random.Random(20130101)
    for k in range(40):
        problems.append((f"rand{k}", *_random_problem(rng, 4 + k % 2)))
    lines = []
    for name, pmf, d in problems:
        lines.extend(_point_line(name, p) for p in rd_points(pmf, d))
    for name, pmf, d in problems[:4]:
        for dd, rr in causal_rd_curve(pmf, d).vertices:
            lines.append(f"causal-{name}|{format_rational(dd)}|{rr!r}")
    triple = _encoder_si_triple()
    x_alpha = triple.alphabets[1]
    d = distortion_matrix(
        x_alpha,
        Alphabet("R", ("a", "b")),
        [[0, Fraction(1, 3)], [Fraction(1, 2), 0], [1, Fraction(1, 5)]],
    )
    lines.extend(_point_line("encsi", p) for p in encoder_si_points(triple, d))
    return lines


def test_cloud_digest_matches_original_solvers():
    text = "\n".join(cloud_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == CLOUD_DIGEST


def _region_problem(rng: random.Random, nx: int, ny: int):
    """Joint of nx x ny with Hamming or rational distortions on each side."""
    while True:
        weights = [[rng.choice([0, 0, 1, 2, 3, 5]) for _ in range(ny)] for _ in range(nx)]
        if all(any(row) for row in weights) and all(any(col) for col in zip(*weights)):
            break
    total = sum(map(sum, weights))
    pmf = JointPMF(
        integer_alphabet("X", nx),
        integer_alphabet("Y", ny),
        tuple(tuple(Fraction(w, total) for w in row) for row in weights),
    )

    def dmat(alphabet):
        if rng.random() < 0.5:
            return hamming(alphabet)
        nrep = rng.randint(2, 3)
        rows = [
            [Fraction(rng.choice([0, 1, 1, 2, 3]), rng.choice([1, 2, 3, 7])) for _ in range(nrep)]
            for _ in range(len(alphabet))
        ]
        return distortion_matrix(alphabet, integer_alphabet("R", nrep), rows)

    return pmf, dmat(pmf.source), dmat(pmf.si)


def _region_targets(rng: random.Random, region, count: int, first: int):
    """Alternately a mix of base points plus slack (achievable) and a target
    pushed below a random nonnegative hyperplane's minimum (unachievable);
    ``first`` is 0 to start with the mix, 1 to start below a hyperplane."""
    coords = [p.coords for p in region.points]
    out = []
    for q in range(first, first + count):
        if q % 2 == 0:
            chosen = [rng.choice(coords) for _ in range(rng.randint(1, 4))]
            weights = [rng.randint(1, 5) for _ in chosen]
            total = sum(weights)
            out.append(tuple(
                sum((Fraction(w, total) * c[k] for w, c in zip(weights, chosen)), Fraction(0))
                + Fraction(rng.randint(0, 3), 64)
                for k in range(4)
            ))
            continue
        c = [0, 0, 0, 0]
        while not any(c):
            c = [rng.randint(0, 3) for _ in range(4)]
        values = [sum(ck * pk for ck, pk in zip(c, p)) for p in coords]
        low = min(values)
        base = [v + Fraction(rng.randint(0, 3), 64) for v in rng.choice(coords)]
        s = (sum(ck * bk for ck, bk in zip(c, base)) - low + Fraction(1, 64)) / sum(ck * ck for ck in c)
        out.append(tuple(bk - s * ck for bk, ck in zip(base, c)))
    return out


def region_lines() -> list[str]:
    problems = [("mt_binary", *mt_binary())]
    rng = random.Random(20130202)
    for k, shape in enumerate([(3, 3)] * 12 + [(3, 4)] * 4 + [(4, 3)] * 4):
        problems.append((f"mt{k}", *_region_problem(rng, *shape)))
    lines = []
    for k, (name, pmf, dx, dy) in enumerate(problems):
        region = build_region(pmf, dx, dy)
        index = {id(p): i for i, p in enumerate(region.points)}
        for p in region.points:
            lines.append("|".join((
                name,
                p.order,
                p.partition_x.to_string(),
                p.partition_y.to_string(),
                ";".join(f"{u}.{v}>{r}" for (u, v), r in p.decoder_x.table.items()),
                ";".join(f"{u}.{v}>{r}" for (u, v), r in p.decoder_y.table.items()),
                ",".join(format_rational(c) for c in p.coords),
            )))
        for target in _region_targets(rng, region, 5, k % 2):
            result = is_achievable(region, target)
            witness = ";".join(
                f"{index[id(p)]}*{format_rational(w)}" for w, p in result.witness or ()
            )
            lines.append(
                f"query-{name}|{','.join(format_rational(t) for t in target)}|"
                f"{'yes' if result.achievable else 'no'}|{witness}"
            )
    return lines


def test_region_digest_matches_original_solvers():
    text = "\n".join(region_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == REGION_DIGEST


def test_typewriter7_envelope_vertices():
    pmf = typewriter(7)
    curve = lower_convex_envelope(rd_points(pmf, hamming(pmf.source)))
    assert curve.vertices == (
        (Fraction(0), Fraction(9, 7)),
        (Fraction(1, 14), Fraction(1)),
        (Fraction(1, 2), Fraction(0)),
    )


# Joints whose last-assigned symbol has several shortest feasible words at
# the optimum; the protocol keeps the lexicographically greatest of them.
@pytest.mark.parametrize(
    "weights,codewords",
    [
        (
            [[0, 0, 0, 0, 0, 2], [0, 1, 3, 0, 1, 9], [3, 1, 0, 3, 2, 0],
             [0, 0, 9, 0, 0, 0], [0, 9, 1, 0, 3, 0], [0, 3, 0, 0, 9, 1]],
            ("11", "00", "11", "1", "01", "10"),
        ),
        (
            [[9, 1, 0], [1, 0, 0], [0, 9, 0], [3, 0, 3], [0, 0, 1], [3, 9, 2]],
            ("01", "11", "1", "10", "11", "00"),
        ),
        (
            [[1, 0, 0, 0], [0, 0, 9, 0], [0, 0, 1, 3], [1, 3, 9, 1],
             [3, 0, 1, 0], [0, 2, 0, 0], [0, 2, 3, 0]],
            ("10", "10", "110", "00", "111", "1", "01"),
        ),
    ],
)
def test_solve_ri_last_symbol_tie_convention(weights, codewords):
    total = sum(map(sum, weights))
    pmf = JointPMF(
        integer_alphabet("X", len(weights)),
        integer_alphabet("Y", len(weights[0])),
        tuple(tuple(Fraction(w, total) for w in row) for row in weights),
    )
    assert solve_ri(pmf)[0].codewords == codewords
