"""The integer quantizer cloud: one RI solve per distinct instance, and a
cap that fails before enumerating.

Core claims:
    - ``rd_points`` calls the RI kernel once per distinct (weights,
      adjacency) key, and its memo lives for one call only
    - ``build_region`` shares one such memo across all its clouds, again for
      one call only
    - a source with more supported symbols than the RI cap raises TooLarge
      before any partition is enumerated, on the plain and the encoder-SI
      route and from the command line
    - the kernel itself checks the cap and solves edge-free instances with
      empty words
    - each distinct cell is merged once per cloud, and ``optimal_decoder``
      gives the same decoder whether it reads the cloud's cells or its own
"""

import time
from fractions import Fraction

import pytest

from zdsi import quantizers
from zdsi.cli import dispatch
from zdsi.errors import TooLarge
from zdsi.fixtures import c6, fully_connected_example, pentagon, split_cell_channel
from zdsi.multiterminal import build_region
from zdsi.probability import (
    JointPMF,
    TriplePMF,
    distortion_matrix,
    hamming,
    integer_alphabet,
    typewriter,
)
from zdsi.ri_codes import DEFAULT_SYMBOL_CAP, solve_ri_weights


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the RI kernel calls made through ``quantizers``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_ri_weights(*args, **kwargs)

    monkeypatch.setattr(quantizers, "solve_ri_weights", counted)
    return calls


@pytest.mark.parametrize(
    "problem,partitions,solves",
    [
        (pentagon, 52, 27),
        (c6, 203, 83),
        (lambda: fully_connected_example(5, "3/10"), 52, 16),
        (lambda: split_cell_channel("1/4"), 52, 23),
    ],
)
def test_one_kernel_solve_per_distinct_instance(kernel_calls, problem, partitions, solves):
    pmf, d = problem()
    assert len(quantizers.rd_points(pmf, d)) == partitions
    assert len(kernel_calls) == solves
    assert len({tuple(args[:2]) for args in kernel_calls}) == solves
    # a second call solves them all again: no memo outlives a call
    quantizers.rd_points(pmf, d)
    assert len(kernel_calls) == 2 * solves


def _region_joint(weights):
    """Joint over X and Y with these integer weights; Hamming on X, and on Y a
    rational distortion with a different reproduction alphabet."""
    total = sum(map(sum, weights))
    pmf = JointPMF(
        integer_alphabet("X", len(weights)),
        integer_alphabet("Y", len(weights[0])),
        tuple(tuple(Fraction(w, total) for w in row) for row in weights),
    )
    rows = [[Fraction((y + k) % 3, 2) for k in range(2)] for y in range(pmf.ncols)]
    return pmf, hamming(pmf.source), distortion_matrix(pmf.si, integer_alphabet("R", 2), rows)


@pytest.mark.parametrize(
    "weights,points,distinct",
    [
        # one memo per cloud made 50 and 345 solves
        ([[2, 1, 0], [0, 3, 1], [1, 0, 2]], 50, 5),
        ([[2, 1, 0, 0], [0, 3, 1, 0], [1, 0, 2, 1], [0, 1, 0, 3]], 450, 18),
    ],
    ids=["3x3", "4x4"],
)
def test_one_kernel_solve_per_distinct_instance_of_a_region(kernel_calls, weights, points, distinct):
    region = build_region(*_region_joint(weights))
    assert len(region.points) == points
    keys = {tuple(args[:2]) for args in kernel_calls}
    assert len(kernel_calls) == len(keys) == distinct
    # a second call solves them all again: no memo outlives a call
    build_region(*_region_joint(weights))
    assert len(kernel_calls) == 2 * distinct


@pytest.fixture
def enumerated(monkeypatch):
    """Count the partitions ``quantizers`` enumerates."""
    count = [0]
    plain = quantizers.enumerate_partitions

    def counted(alphabet):
        for partition in plain(alphabet):
            count[0] += 1
            yield partition

    monkeypatch.setattr(quantizers, "enumerate_partitions", counted)
    return count


def test_rd_points_fails_fast_above_the_ri_cap(enumerated, kernel_calls):
    pmf = typewriter(DEFAULT_SYMBOL_CAP + 1)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="11 supported symbols exceeds the exactness cap 10"):
        quantizers.rd_points(pmf, hamming(pmf.source))
    assert time.perf_counter() - start < 1.0
    assert enumerated[0] == 0 and kernel_calls == []


def test_the_cap_counts_positive_mass_rows_only(monkeypatch, enumerated):
    monkeypatch.setattr(quantizers, "DEFAULT_SYMBOL_CAP", 4)
    pmf = typewriter(5)
    with pytest.raises(TooLarge, match="5 supported symbols exceeds the exactness cap 4"):
        quantizers.rd_points(pmf, hamming(pmf.source))
    assert enumerated[0] == 0
    # an empty sixth row leaves the support at 5, the cap at 5 lets it through
    monkeypatch.setattr(quantizers, "DEFAULT_SYMBOL_CAP", 5)
    padded = JointPMF(
        integer_alphabet("X", 6), pmf.si, pmf.probs + ((Fraction(0),) * 5,)
    )
    assert len(quantizers.rd_points(padded, hamming(padded.source))) == 203


def test_encoder_si_route_fails_fast_above_the_ri_cap(enumerated, kernel_calls):
    # one encoder-SI symbol: 11 supported (x, s) pairs, under the partition cap
    pmf = typewriter(DEFAULT_SYMBOL_CAP + 1)
    triple = TriplePMF((integer_alphabet("S", 1), pmf.source, pmf.si), (pmf.probs,))
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="exactness cap"):
        quantizers.encoder_si_points(triple, hamming(pmf.source))
    assert time.perf_counter() - start < 1.0
    assert enumerated[0] == 0 and kernel_calls == []


def test_cli_fails_fast_above_the_ri_cap(capsys):
    start = time.perf_counter()
    code = dispatch(["rd-curve", "--example", "fully-connected", "--M", "11", "--p", "3/10"])
    assert code == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: 11 supported symbols exceeds the exactness cap 10\n"


def test_kernel_checks_the_cap():
    n = DEFAULT_SYMBOL_CAP + 1
    with pytest.raises(TooLarge, match="pass max_symbols"):
        solve_ri_weights([1] * n, [0] * n)
    assert solve_ri_weights([1] * n, [0] * n, max_symbols=n) == (("",) * n, 0)


def test_kernel_pentagon_in_weight_units():
    ring = [(1 << (v - 1) % 5) | (1 << (v + 1) % 5) for v in range(5)]
    words, best = solve_ri_weights([1] * 5, ring)
    assert best == 7 and sum(map(len, words)) == 7


@pytest.fixture
def merges(monkeypatch):
    """Record the member sets the cloud's cell routine merges."""
    merged = []
    plain = quantizers._Cells.__missing__

    def counted(self, members):
        merged.append(members)
        return plain(self, members)

    monkeypatch.setattr(quantizers._Cells, "__missing__", counted)
    return merged


def _zero_row_joint():
    """typewriter(5) with a sixth source row of no mass."""
    pmf = typewriter(5)
    return JointPMF(integer_alphabet("X", 6), pmf.si, pmf.probs + ((Fraction(0),) * 5,))


@pytest.mark.parametrize("pmf", [typewriter(6), _zero_row_joint()], ids=["typewriter6", "zero-row"])
def test_each_cell_is_merged_once_per_cloud(merges, pmf):
    d = hamming(pmf.source)
    assert len(quantizers.rd_points(pmf, d)) == 203
    # every nonempty subset of the 6 symbols is a cell of some partition
    assert len(merges) == len(set(merges)) == 2**6 - 1
    # the memo lives for one cloud only
    quantizers.rd_points(pmf, d)
    assert len(merges) == 2 * (2**6 - 1)


def _rational_problem(weights):
    """``_region_joint``'s pmf under a rational distortion on X with ties."""
    pmf = _region_joint(weights)[0]
    rows = [[Fraction((x + k) % 3, 2) for k in range(2)] for x in range(pmf.nrows)]
    return pmf, distortion_matrix(pmf.source, integer_alphabet("R", 2), rows)


@pytest.mark.parametrize(
    "problem",
    [
        lambda: split_cell_channel("1/4"),
        lambda: (_zero_row_joint(), hamming(_zero_row_joint().source)),
        lambda: _rational_problem([[2, 1, 0, 0], [0, 3, 1, 0], [1, 0, 2, 1], [0, 1, 0, 3]]),
    ],
    ids=["split-cell", "zero-row", "rational-distortion"],
)
def test_optimal_decoder_reads_the_same_cells_as_the_cloud(problem):
    pmf, d = problem()
    cells = quantizers._Cells(pmf, d)
    for partition in quantizers.enumerate_partitions(pmf.source):
        assert quantizers.optimal_decoder(pmf, partition, d, cells) == quantizers.optimal_decoder(pmf, partition, d)
