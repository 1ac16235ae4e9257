"""Property-based differential tests of the exact kernels against the oracles.

``solve_ri`` is compared with the exhaustive RI search, ``optimal_decoder``
with the brute force over all decoder rules, and the integer simplex behind
``is_achievable`` with a Fraction-tableau simplex, all from ``conftest``.
The examples are derandomized so every run checks the same instances.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _conflict,
    oracle_best_decoder_distortion,
    oracle_confusability,
    oracle_feasible_mixture,
    oracle_optimal_ri_length,
)
from zdsi.multiterminal import _feasible_mixture
from zdsi.probability import JointPMF, distortion_matrix, integer_alphabet
from zdsi.quantizers import enumerate_partitions, optimal_decoder
from zdsi.ri_codes import solve_ri

EXACT = dict(deadline=None, derandomize=True, database=None)


@st.composite
def joints(draw, max_rows: int, max_cols: int) -> JointPMF:
    """Exact joint pmf from small integer weights; zero rows are allowed."""
    nx = draw(st.integers(1, max_rows))
    ny = draw(st.integers(1, max_cols))
    weights = draw(
        st.lists(
            st.lists(st.sampled_from([0, 0, 1, 2, 3, 5]), min_size=ny, max_size=ny),
            min_size=nx,
            max_size=nx,
        ).filter(lambda rows: any(map(any, rows)))
    )
    total = sum(map(sum, weights))
    return JointPMF(
        integer_alphabet("X", nx),
        integer_alphabet("Y", ny),
        tuple(tuple(Fraction(w, total) for w in row) for row in weights),
    )


@st.composite
def distortions(draw, source):
    """Rational distortion with one column repeated, which forces a decoder tie."""
    nrep = draw(st.integers(1, 3))
    entry = st.builds(Fraction, st.integers(0, 4), st.sampled_from([1, 2, 3, 7, 9]))
    column = st.lists(entry, min_size=len(source), max_size=len(source))
    columns = draw(st.lists(column, min_size=nrep, max_size=nrep))
    tie = draw(st.integers(0, nrep - 1))
    at = draw(st.integers(0, nrep))
    columns.insert(at, columns[tie])
    rows = [[col[x] for col in columns] for x in range(len(source))]
    return distortion_matrix(source, integer_alphabet("R", nrep + 1), rows)


@settings(max_examples=50, **EXACT)
@given(joints(max_rows=5, max_cols=4))
def test_solve_ri_matches_exhaustive_oracle(pmf):
    protocol, value = solve_ri(pmf)
    support = sum(1 for row in pmf.probs if any(row))
    # words of length 3 suffice up to 4 symbols; 5 can need depth 4
    assert value == oracle_optimal_ri_length(pmf, max_len=3 if support <= 4 else 4)
    words = protocol.codewords
    p = [sum(row, Fraction(0)) for row in pmf.probs]
    assert protocol.average_length == value == sum(q * len(w) for q, w in zip(p, words))
    conf = oracle_confusability(pmf)
    for a in range(pmf.nrows):
        for b in range(pmf.nrows):
            if conf[a][b]:
                assert not _conflict(words[a], words[b])


@settings(max_examples=150, **EXACT)
@given(st.data())
def test_optimal_decoder_matches_brute_force(data):
    pmf = data.draw(joints(max_rows=3, max_cols=3))
    d = data.draw(distortions(pmf.source))
    partition = data.draw(st.sampled_from(list(enumerate_partitions(pmf.source))))
    decoder, distortion = optimal_decoder(pmf, partition, d)
    assert distortion == oracle_best_decoder_distortion(pmf, partition.cells, d)
    # each (cell, y) pair of positive mass gets the lowest-index Bayes reproduction
    blocks = partition.blocks()
    pairs = set()
    for z, members in enumerate(blocks):
        for y in range(pmf.ncols):
            if any(pmf.probs[x][y] for x in members):
                pairs.add((z, y))
                costs = [
                    sum((pmf.probs[x][y] * d(x, r) for x in members), Fraction(0))
                    for r in range(len(d.reproduction))
                ]
                assert decoder.table[(z, y)] == costs.index(min(costs))
    assert set(decoder.table) == pairs


# few distinct small coordinates: repeated values, zero right-hand sides and
# equal ratios make degenerate pivots and Bland ties common
coordinates = st.sampled_from([Fraction(v) for v in ("0", "0", "1", "1", "2", "1/2", "3/4", "-1")])


@st.composite
def targets(draw, vectors):
    """A mix of the points plus slack, a point's own coordinates per axis
    (ties with the weight-sum row), or any small target."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        weights = draw(st.lists(st.integers(0, 3), min_size=len(vectors), max_size=len(vectors)))
        total = sum(weights) or 1
        slack = draw(st.tuples(*[st.sampled_from([0, 0, Fraction(1, 4), Fraction(-1, 4)])] * 4))
        return tuple(
            sum((Fraction(w, total) * v[k] for w, v in zip(weights, vectors)), Fraction(0)) + slack[k]
            for k in range(4)
        )
    if kind == 1:
        return tuple(draw(st.sampled_from([v[k] for v in vectors])) for k in range(4))
    return draw(st.tuples(coordinates, coordinates, coordinates, coordinates))


@settings(max_examples=200, **EXACT)
@given(st.data())
def test_feasible_mixture_matches_fraction_tableau(data):
    vectors = data.draw(
        st.lists(st.tuples(coordinates, coordinates, coordinates, coordinates), min_size=1, max_size=10)
    )
    # several targets per region: a Bland tie changes the weights only rarely
    for target in data.draw(st.lists(targets(vectors), min_size=10, max_size=10)):
        assert _feasible_mixture(vectors, target) == oracle_feasible_mixture(vectors, target)
