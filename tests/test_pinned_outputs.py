"""Pinned outputs of the quantizer cloud: same protocols, same witnesses.

Every partition of a fixed set of problems is reduced to one text line
(partition, RI codewords, rate, sorted decoder table, distortion) and the
lines are hashed.  The digest below was recorded once with the original
Fraction-arithmetic solvers; any faster kernel must reproduce it byte for
byte, so a change that returns a different (even equally optimal) codeword
assignment or breaks a decoder tie differently fails here.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from zdsi.fixtures import c6, fully_connected_example, pentagon, split_cell_channel
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
