"""Probability primitives: validation, marginals, generators, sampling.

Core claims:
    - validate names the offending cell or total exactly
    - marginals and conditionals reconstruct the joint exactly (rationals)
    - typewriter support is {x, x+1 mod m} with uniform P_X
    - fully_connected rows are exact conditional distributions
    - sampling is deterministic per seed and matches frequencies at 4 sigma
    - the inverse-CDF sampler agrees with `searchsorted` on every positive
      cell and never draws a zero-weight cell
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_joint_pmf
from zdsi.errors import ConditionOnZero, NegativeEntry, SumNotOne
from zdsi.probability import (
    InverseCDF,
    aggregate_rows,
    conditional_given_si,
    entropy_bits,
    fully_connected,
    integer_alphabet,
    joint_pmf,
    marginal_si,
    marginal_source,
    normalized_support,
    sample_iid,
    typewriter,
    validate,
)

X2 = integer_alphabet("X", 2)
Y2 = integer_alphabet("Y", 2)


def test_validate_uniform_ok():
    validate(joint_pmf(X2, Y2, [["1/4", "1/4"], ["1/4", "1/4"]]))


def test_validate_sum_not_one():
    bad = joint_pmf(X2, Y2, [["1/4", "1/4"], ["1/4", "3/20"]])
    with pytest.raises(SumNotOne, match="9/10"):
        validate(bad)


def test_validate_negative_entry():
    bad = joint_pmf(X2, Y2, [["-1/4", "1/2"], ["1/4", "1/2"]])
    with pytest.raises(NegativeEntry, match=r"P\(1,1\)"):
        validate(bad)


def test_marginals_uniform():
    pmf = joint_pmf(X2, Y2, [["1/4", "1/4"], ["1/4", "1/4"]])
    assert marginal_source(pmf) == (Fraction(1, 2), Fraction(1, 2))
    assert marginal_si(pmf) == (Fraction(1, 2), Fraction(1, 2))


def test_typewriter_marginal_uniform():
    pmf = typewriter(5)
    assert marginal_source(pmf) == tuple([Fraction(1, 5)] * 5)


def test_condition_on_zero_column():
    pmf = joint_pmf(X2, Y2, [["1/2", "0"], ["1/2", "0"]])
    assert conditional_given_si(pmf, 0) == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ConditionOnZero):
        conditional_given_si(pmf, 1)


def test_marginals_reconstruct_joint_exactly():
    rng = random.Random(11)
    for _ in range(25):
        pmf = rand_joint_pmf(rng, rng.randint(1, 4), rng.randint(1, 4))
        cols = marginal_si(pmf)
        for j, mass in enumerate(cols):
            if mass == 0:
                continue
            cond = conditional_given_si(pmf, j)
            for i in range(pmf.nrows):
                assert cond[i] * mass == pmf.probs[i][j]
        assert sum(marginal_source(pmf), Fraction(0)) == 1


def test_typewriter_support_structure():
    for m in (3, 5, 8):
        pmf = typewriter(m)
        w = Fraction(1, 2 * m)
        for x in range(m):
            support = {j for j in range(m) if pmf.probs[x][j] > 0}
            assert support == {x, (x + 1) % m}
            assert pmf.probs[x][x] == w and pmf.probs[x][(x + 1) % m] == w
        # every SI symbol sees exactly two source symbols
        for y in range(m):
            assert sum(1 for x in range(m) if pmf.probs[x][y] > 0) == 2


def test_typewriter_rejects_small():
    with pytest.raises(ValueError):
        typewriter(2)


def test_fully_connected_values():
    pmf = fully_connected(2, Fraction(1, 3))
    assert pmf.probs[0][0] == Fraction(1, 3)
    assert pmf.probs[0][1] == Fraction(1, 6)
    validate(pmf)


def test_fully_connected_conditional_rows_sum_to_one():
    for m, p in ((3, Fraction(1, 5)), (5, Fraction(3, 10))):
        pmf = fully_connected(m, p)
        px = marginal_source(pmf)
        for i in range(m):
            assert sum(pmf.probs[i], Fraction(0)) == px[i]
            assert sum(v / px[i] for v in pmf.probs[i]) == 1


def test_fully_connected_degenerate_p_zero():
    pmf = fully_connected(5, 0)
    for i in range(5):
        support = {j for j in range(5) if pmf.probs[i][j] > 0}
        assert support == {i}


def test_normalized_support_strips_and_maps():
    x3 = integer_alphabet("X", 3)
    pmf = joint_pmf(x3, Y2, [["1/2", "0"], ["0", "0"], ["0", "1/2"]])
    stripped, kept = normalized_support(pmf)
    assert kept == (0, 2)
    assert stripped.nrows == 2
    assert marginal_source(stripped) == (Fraction(1, 2), Fraction(1, 2))


def test_aggregate_rows_masses():
    pmf = typewriter(5)
    merged = aggregate_rows(pmf, (0, 1, 2, 0, 3))
    assert merged.nrows == 4
    assert marginal_source(merged)[0] == Fraction(2, 5)
    assert sum(marginal_source(merged), Fraction(0)) == 1


def test_aggregate_rows_survives_label_collision():
    from zdsi.probability import Alphabet, JointPMF

    pmf = JointPMF(
        Alphabet("X", ("a+b", "a", "b")),
        Alphabet("Y", ("u",)),
        ((Fraction(1, 3),), (Fraction(1, 3),), (Fraction(1, 3),)),
    )
    merged = aggregate_rows(pmf, (0, 1, 1))
    assert len(set(merged.source.symbols)) == 2
    assert marginal_source(merged) == (Fraction(1, 3), Fraction(2, 3))


def test_sample_empty_and_deterministic():
    pmf = joint_pmf(X2, Y2, [["1/4", "1/4"], ["1/4", "1/4"]])
    assert sample_iid(pmf, 0, seed=1).shape == (0, 2)
    a = sample_iid(pmf, 500, seed=42)
    b = sample_iid(pmf, 500, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_iid(pmf, 500, seed=43))


def test_sample_frequencies_within_four_sigma():
    pmf = joint_pmf(X2, Y2, [["1/4", "1/4"], ["1/4", "1/4"]])
    n = 100_000
    pairs = sample_iid(pmf, n, seed=7)
    sigma = math.sqrt(0.25 * 0.75 / n)
    for i in range(2):
        for j in range(2):
            freq = np.sum((pairs[:, 0] == i) & (pairs[:, 1] == j)) / n
            assert abs(freq - 0.25) <= 4 * sigma


def test_entropy_helpers():
    assert entropy_bits([1, 1]) == 1.0
    assert entropy_bits([Fraction(1, 2), Fraction(1, 2)]) == 1.0
    assert entropy_bits([1]) == 0.0


def test_triple_pmf_validation():
    from zdsi.probability import triple_pmf

    alphabets = (integer_alphabet("A", 2), integer_alphabet("B", 1), integer_alphabet("C", 1))
    with pytest.raises(SumNotOne):
        triple_pmf(alphabets, [[["1/2"]], [["1/4"]]])
    triple = triple_pmf(alphabets, [[["1/2"]], [["1/2"]]])
    assert triple.marginal(0) == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ConditionOnZero):
        bad = triple_pmf(alphabets, [[["1"]], [["0"]]])
        bad.pair_joint_given(0, 1)


def _searchsorted_draw(weights, u):
    """The sampler's earlier form: searchsorted on the CDF with cum[-1] = 1."""
    cum = np.cumsum(np.asarray(weights, dtype=float))
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right")


def test_inverse_cdf_never_draws_a_trailing_zero_cell():
    weights = [0.1] * 10 + [0.0]
    assert np.cumsum(weights)[-2] == 0.9999999999999999
    u = np.array([0.0, 0.05, 0.95, 0.9999999999999998, np.nextafter(1.0, 0.0)])
    assert _searchsorted_draw(weights, u)[-1] == 10  # the zero cell
    assert InverseCDF(weights)(u).tolist() == [0, 0, 9, 9, 9]


def test_inverse_cdf_matches_searchsorted_on_positive_cells():
    rng = random.Random(4)
    gen = np.random.default_rng(4)
    for _ in range(300):
        size = rng.randint(1, 8)
        weights = np.array([rng.choice([0, 0, 1, 2, 3, 7]) for _ in range(size)], dtype=float)
        if not weights.any():
            continue
        weights /= weights.sum()
        # uniforms, plus every CDF value and its neighbours
        cum = np.cumsum(weights)
        edges = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0)])
        u = np.concatenate([gen.random(200), edges[edges < 1.0], [0.0, np.nextafter(1.0, 0.0)]])
        drawn = InverseCDF(weights)(u)
        assert (weights[drawn] > 0).all()
        old = _searchsorted_draw(weights, u)
        on_positive = weights[old] > 0
        assert np.array_equal(drawn[on_positive], old[on_positive])
    shaped = InverseCDF([0.0, 0.5, 0.0, 0.5])(gen.random((4, 3)))
    assert shaped.shape == (4, 3) and set(shaped.ravel().tolist()) <= {1, 3}
