"""Property-based differential tests of the exact kernels against the oracles.

``solve_ri`` and the subset DP behind it are compared with the exhaustive RI
search, the RI kernel ``solve_ri_weights`` with the branch-and-bound it
replaced, ``optimal_decoder`` with the brute force over all decoder rules,
the integer cloud of ``rd_points`` with the per-partition Fraction route, the
SI-bitmask graphs with a column scan of the Fraction-merged joints, and the
integer simplex behind ``is_achievable`` with a Fraction-tableau simplex
(on hypothesis regions of up to 10 columns and on one 150-column region),
all from ``conftest``.
The examples are derandomized so every run checks the same instances.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    _conflict,
    oracle_best_decoder_distortion,
    oracle_characteristic_graph,
    oracle_confusability,
    oracle_feasible_mixture,
    oracle_induced_graph,
    oracle_optimal_ri_length,
    oracle_rd_points,
    oracle_solve_ri_weights,
)
from test_pinned_outputs import _region_problem, _region_targets
from zdsi.graphs import build_characteristic_graph, induced_graph
from zdsi.multiterminal import _feasible_mixture, build_region
from zdsi.probability import (
    Alphabet,
    JointPMF,
    distortion_matrix,
    hamming,
    integer_alphabet,
    marginal_source,
    normalized_support,
)
from zdsi.quantizers import enumerate_partitions, optimal_decoder, rd_points
from zdsi.ri_codes import (
    _component_lengths,
    _subset_lengths,
    _suffix_bounds,
    solve_ri,
    solve_ri_weights,
)

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
    support, _ = normalized_support(pmf)
    # words of length 3 suffice up to 4 symbols; 5 can need depth 4
    assert value == oracle_optimal_ri_length(pmf, max_len=3 if support.nrows <= 4 else 4)
    # the subset DP's optimum on its own, from the primitive weights
    p = marginal_source(support)
    scale = lcm(*(q.denominator for q in p))
    weights = [q.numerator * (scale // q.denominator) for q in p]
    adjacency = build_characteristic_graph(support).adjacency
    assert Fraction(_subset_lengths(weights, adjacency)[-1], scale) == value
    words = protocol.codewords
    p = [sum(row, Fraction(0)) for row in pmf.probs]
    assert protocol.average_length == value == sum(q * len(w) for q, w in zip(p, words))
    conf = oracle_confusability(pmf)
    for a in range(pmf.nrows):
        for b in range(pmf.nrows):
            if conf[a][b]:
                assert not _conflict(words[a], words[b])


@st.composite
def ri_instances(draw, max_symbols: int = 8):
    """Integer weights 1-30 drawn from a small pool, so equal weights are
    common, and a graph whose edge density runs from empty to complete."""
    n = draw(st.integers(2, max_symbols))
    pool = draw(st.lists(st.integers(1, 30), min_size=1, max_size=n))
    weights = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    density = draw(st.integers(0, 8))  # an edge where its coin is below it; 8 is complete
    pairs = list(combinations(range(n), 2))
    coins = draw(st.lists(st.integers(0, 7), min_size=len(pairs), max_size=len(pairs)))
    adjacency = [0] * n
    for (a, b), coin in zip(pairs, coins):
        if coin < density:
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
    return weights, adjacency


def _ring(n: int) -> list[int]:
    return [(1 << (v - 1) % n) | (1 << (v + 1) % n) for v in range(n)]


@settings(max_examples=200, **EXACT)
@given(ri_instances())
@example(([1] * 5, _ring(5)))
@example(([3, 3, 3, 3, 3, 3, 3], _ring(7)))
@example(([1] * 6, [63 ^ 1 << v for v in range(6)]))
@example(([1, 2, 1, 1, 1, 1, 1, 1], _ring(8)))
def test_kernel_returns_the_branch_and_bound_protocol(instance):
    weights, adjacency = instance
    assert solve_ri_weights(weights, adjacency) == oracle_solve_ri_weights(weights, adjacency)


@settings(max_examples=150, **EXACT)
@given(ri_instances())
def test_suffix_bounds_lie_between_reservations_and_optimal_words(instance):
    weights, adjacency = instance
    # any order of the non-isolated symbols; here the index order
    order = [v for v in range(len(weights)) if adjacency[v]]
    bound = _suffix_bounds(weights, adjacency, order, _component_lengths(weights, adjacency))
    words, total = solve_ri_weights(weights, adjacency)
    assert bound[0] == total and bound[-1] == 0
    for i in range(len(order)):
        # every non-isolated symbol takes at least one bit, and no feasible
        # code, the optimal one included, spends less than the bound
        assert sum(weights[v] for v in order[i:]) <= bound[i]
        assert bound[i] <= sum(weights[v] * len(words[v]) for v in order[i:])


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


# labels whose '+'-joined cells can collide with another symbol's label
LABELS = ("a", "b", "c", "a+b", "b+c", "a+b+c", "1", "2")


@st.composite
def cloud_problems(draw):
    """Joint with zero rows, empty SI columns and relabelled source symbols,
    under Hamming or a rational distortion with a forced decoder tie."""
    pmf = draw(joints(max_rows=5, max_cols=4))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=pmf.nrows, max_size=pmf.nrows, unique=True))
    pmf = JointPMF(Alphabet("X", tuple(labels)), pmf.si, pmf.probs)
    d = hamming(pmf.source) if draw(st.booleans()) else draw(distortions(pmf.source))
    return pmf, d


def _collision_problem():
    """Cells {a, b} and {a+b} collide; row c has no mass and column 3 none."""
    w = [[1, 2, 0], [0, 3, 0], [1, 1, 0], [0, 0, 0]]
    pmf = JointPMF(
        Alphabet("X", ("a", "b", "a+b", "c")),
        integer_alphabet("Y", 3),
        tuple(tuple(Fraction(v, 8) for v in row) for row in w),
    )
    return pmf, hamming(pmf.source)


def _unnormalized_problem():
    """Entries summing to 3/4: the rate stays the expected length under
    these masses, not under their normalization."""
    w = [[2, 0, 2], [0, 2, 2], [2, 2, 0], [4, 0, 2]]
    pmf = JointPMF(
        integer_alphabet("X", 4),
        integer_alphabet("Y", 3),
        tuple(tuple(Fraction(v, 24) for v in row) for row in w),
    )
    return pmf, hamming(pmf.source)


@settings(max_examples=60, **EXACT)
@given(cloud_problems())
@example(_collision_problem())
@example(_unnormalized_problem())
def test_rd_points_matches_fraction_route(problem):
    pmf, d = problem
    got = rd_points(pmf, d)
    want = oracle_rd_points(pmf, d)
    assert len(got) == len(want)
    for point, (partition, induced, decoder, distortion, protocol) in zip(got, want):
        assert point.partition == partition
        assert point.induced == induced  # labels, SI alphabet and probabilities
        assert all(type(v) is Fraction for row in point.induced.probs for v in row)
        assert point.decoder == decoder
        assert point.distortion == distortion
        assert point.rate == protocol.average_length
        assert point.protocol.codewords == protocol.codewords
        assert point.protocol.average_length == protocol.average_length
        assert len(point.protocol.codewords) == induced.nrows
        assert point.dmat is d


@settings(max_examples=60, **EXACT)
@given(cloud_problems())
@example(_collision_problem())
def test_graphs_match_column_scan(problem):
    pmf, _ = problem
    g = build_characteristic_graph(pmf)
    assert (g.vertices, g.edges) == oracle_characteristic_graph(pmf)
    for partition in enumerate_partitions(pmf.source):
        g = induced_graph(pmf, partition)
        assert (g.vertices, g.edges) == oracle_induced_graph(pmf, partition.cells)


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


def test_feasible_mixture_matches_fraction_tableau_on_a_wide_region():
    # the hypothesis regions have at most 10 columns; a 3x4 region has 150,
    # so the reduced costs priced on demand are scanned far past the basis
    rng = random.Random(2)
    region = build_region(*_region_problem(rng, 3, 4))
    vectors = [p.coords for p in region.points]
    assert len(vectors) == 150
    answers = []
    for target in _region_targets(rng, region, 5, 0):
        weights = _feasible_mixture(vectors, target)
        assert weights == oracle_feasible_mixture(vectors, target)
        answers.append(weights is not None)
    assert answers == [True, False, True, False, True]
