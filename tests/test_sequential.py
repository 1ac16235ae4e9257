"""Collision bound, threshold, RD function, and scheme Monte Carlo.

Core claims:
    - pc_lower_bound matches arbitrary-precision evaluation of the closed
      form and is exact in the R=0 and dyadic cases
    - the Monte Carlo collision-free estimate straddles the bound on the
      convergent side of the threshold and collapses below it
    - the RD function's closed form and the alternating-minimization route
      agree; R is convex nonincreasing with the right endpoints
    - fixed-rate accounting is exact; variable mode stays within one bit of
      the RD optimum at desk scale
"""

import math
from fractions import Fraction

import mpmath
import pytest

from zdsi.errors import DomainError, TooLarge
from zdsi.probability import distortion_matrix, hamming, integer_alphabet
from zdsi.sequential import (
    pc_lower_bound,
    rd_function,
    simulate_prefix_uniqueness,
    simulate_scheme,
    threshold_alpha,
)

X2 = integer_alphabet("X", 2)
UNIFORM2 = [Fraction(1, 2), Fraction(1, 2)]


def test_pc_bound_r_zero_single_competitor():
    for n, alpha, h in ((10, 0.5, 1.0), (24, 0.25, 0.8)):
        expected = 1.0 - 2.0 ** (-n * alpha * h)
        assert pc_lower_bound(n, alpha, h, 0.0) == pytest.approx(expected, abs=1e-15)


def test_pc_bound_dyadic_case_exact():
    exact = Fraction(1023, 1024) ** 32
    assert pc_lower_bound(20, 0.5, 1.0, 0.25) == pytest.approx(float(exact), abs=1e-15)


def test_pc_bound_matches_mpmath_on_grid():
    mpmath.mp.dps = 60
    configs = [
        (n, alpha, h, r)
        for n in (8, 16, 24, 40, 64)
        for alpha, h, r in ((0.5, 1.0, 0.25), (0.3, 1.5, 0.2), (0.9, 0.7, 0.5), (1.0, 2.0, 1.0))
    ]
    assert len(configs) == 20
    for n, alpha, h, r in configs:
        base = 1 - mpmath.mpf(2) ** (-n * mpmath.mpf(alpha) * h)
        exact = base ** (mpmath.mpf(2) ** (n * mpmath.mpf(r)))
        assert abs(pc_lower_bound(n, alpha, h, r) - float(exact)) <= 1e-12


def test_pc_bound_limits_and_monotonicity():
    # below the threshold the bound collapses with n
    assert pc_lower_bound(4000, 0.2, 1.0, 0.5) < 1e-12
    # above it the bound is nondecreasing in alpha and n
    low = [pc_lower_bound(n, 0.5, 1.0, 0.25) for n in (8, 16, 32, 64)]
    assert all(a <= b for a, b in zip(low, low[1:]))
    alphas = [pc_lower_bound(24, a, 1.0, 0.25) for a in (0.3, 0.5, 0.7, 1.0)]
    assert all(a <= b for a, b in zip(alphas, alphas[1:]))


def test_pc_bound_domain_errors():
    with pytest.raises(DomainError):
        pc_lower_bound(0, 0.5, 1.0, 0.25)
    with pytest.raises(DomainError):
        pc_lower_bound(10, 0.0, 1.0, 0.25)
    with pytest.raises(DomainError):
        pc_lower_bound(10, 0.5, 0.0, 0.25)
    with pytest.raises(DomainError):
        pc_lower_bound(10, 0.5, 1.0, -0.1)


def test_threshold_alpha_values():
    assert threshold_alpha(0.5, 1.0) == 0.5
    assert threshold_alpha(0.0, 2.0) == 0.0
    assert threshold_alpha(1.0, 0.5) == 2.0  # infeasible at any prefix fraction
    with pytest.raises(DomainError):
        threshold_alpha(0.5, 0.0)


def test_prefix_uniqueness_deterministic():
    a = simulate_prefix_uniqueness(UNIFORM2, 24, 0.25, 0.5, 200, seed=5)
    b = simulate_prefix_uniqueness(UNIFORM2, 24, 0.25, 0.5, 200, seed=5)
    assert a == b
    c = simulate_prefix_uniqueness(UNIFORM2, 24, 0.25, 0.5, 200, seed=6)
    assert a.estimate != c.estimate or a is not c


def test_prefix_uniqueness_phase_transition():
    above = simulate_prefix_uniqueness(UNIFORM2, 24, 0.25, 0.5, 400, seed=7)
    bound = pc_lower_bound(24, 0.5, 1.0, 0.25)
    assert above.estimate >= bound - 3 * above.half_width
    below = simulate_prefix_uniqueness(UNIFORM2, 24, 0.25, 0.125, 400, seed=7)
    assert below.estimate <= 0.2


def test_prefix_uniqueness_guards():
    with pytest.raises(TooLarge):
        simulate_prefix_uniqueness(UNIFORM2, 30, 1.0, 0.5, 10, seed=0)
    with pytest.raises(TooLarge):
        simulate_prefix_uniqueness(UNIFORM2, 20_000, 0.0, 0.5, 10, seed=0)


def test_rd_function_uniform_binary_closed_form():
    rdf = rd_function(UNIFORM2, hamming(X2))
    assert rdf.rate(0.0) == 1.0
    h = -0.125 * math.log2(0.125) - 0.875 * math.log2(0.875)
    assert rdf.rate(0.125) == pytest.approx(1.0 - h, abs=1e-12)
    assert rdf.output_prior(0.125) == (0.5, 0.5)
    assert rdf.d_max == 0.5
    assert rdf.rate(0.5) == 0.0
    assert rdf.output_prior(0.6) == (1.0, 0.0)


def test_rd_function_convex_nonincreasing():
    rdf = rd_function(UNIFORM2, hamming(X2))
    ds = [k / 20 for k in range(11)]
    rates = [rdf.rate(d) for d in ds]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    for i in range(1, len(ds) - 1):
        assert rates[i] <= (rates[i - 1] + rates[i + 1]) / 2 + 1e-9


def test_rd_alternating_minimization_matches_closed_form():
    rdf = rd_function(UNIFORM2, hamming(X2))
    rdf._closed_form = False  # force the iterative route
    closed = rd_function(UNIFORM2, hamming(X2))
    for d in (0.05, 0.125, 0.25, 0.4):
        assert rdf.rate(d) == pytest.approx(closed.rate(d), abs=1e-6)
        prior = rdf.output_prior(d)
        assert prior[0] == pytest.approx(0.5, abs=1e-5)


def test_rd_function_nonuniform_sanity():
    p = [Fraction(3, 4), Fraction(1, 4)]
    rdf = rd_function(p, hamming(X2))
    h = -0.75 * math.log2(0.75) - 0.25 * math.log2(0.25)
    assert rdf.d_max == 0.25
    assert rdf.rate(0.0) == pytest.approx(h, abs=1e-5)
    # binary closed form with general p: R(D) = h(p) - h(D)
    d = 0.1
    hd = -d * math.log2(d) - (1 - d) * math.log2(1 - d)
    assert rdf.rate(d) == pytest.approx(h - hd, abs=1e-5)


def test_rd_function_closed_form_needs_exactly_uniform_hamming():
    assert rd_function(UNIFORM2, hamming(X2))._closed_form
    assert rd_function([Fraction(1, 3)] * 3, hamming(integer_alphabet("X", 3)))._closed_form
    # both inputs below lie within np.allclose's default tolerance of
    # uniform Hamming
    eps = Fraction(1, 250_000)
    near = [Fraction(1, 2) + eps, Fraction(1, 2) - eps]
    rdf = rd_function(near, hamming(X2))
    assert not rdf._closed_form
    # binary source: the optimal output prior is (p - D) / (1 - 2D), not 1/2
    q0 = rdf.output_prior(0.1)[0]
    assert q0 == pytest.approx((float(near[0]) - 0.1) / 0.8, abs=1e-6)
    assert q0 > 0.5 + 2e-6
    near_hamming = distortion_matrix(X2, X2, [[0, Fraction(10**9 + 1, 10**9)], [1, 0]])
    assert not rd_function(UNIFORM2, near_hamming)._closed_form


def test_rd_function_rejects_bad_source():
    with pytest.raises(DomainError):
        rd_function([Fraction(1, 2), Fraction(0), Fraction(1, 2)], hamming(integer_alphabet("X", 3)))


def test_scheme_degenerate_zero_rate():
    report = simulate_scheme(
        UNIFORM2, hamming(X2), 0.5, n=16, epsilon=0.0, alpha=0.25,
        mode="variable", trials=50, seed=1,
    )
    found = [r for r in report.results if r.found_typical]
    assert found  # the constant word is typical for balanced-enough sources
    for r in found:
        assert r.bits_sent == 0
        assert r.prefix_unique


def test_scheme_fixed_rate_accounting_identity():
    report = simulate_scheme(
        UNIFORM2, hamming(X2), 0.125, n=24, epsilon=0.15,
        alpha=threshold_alpha(rd_function(UNIFORM2, hamming(X2)).rate(0.125), 1.0) + 0.1,
        mode="fixed", trials=60, seed=2,
    )
    prefix_len = math.ceil(24 * report.alpha)
    for r in report.results:
        if r.found_typical:
            assert r.bits_sent == prefix_len * 1  # ceil(log2 2) = 1
    assert report.bits_per_symbol == pytest.approx(prefix_len / 24, abs=1e-12)
    assert report.typical_fail_rate <= 0.10
    assert report.distortion <= 0.125 + 0.02


def test_scheme_variable_mode_within_one_bit():
    rdf = rd_function(UNIFORM2, hamming(X2))
    rate_d = rdf.rate(0.125)
    report = simulate_scheme(
        UNIFORM2, hamming(X2), 0.125, n=24, epsilon=0.15,
        alpha=threshold_alpha(rate_d, 1.0) + 0.1,
        mode="variable", trials=120, seed=3,
    )
    assert report.bits_per_symbol <= rate_d + 1 + 0.1
    assert report.typical_fail_rate <= 0.10


def test_scheme_uniform_prior_fixed_rate_tracks_alpha():
    rdf = rd_function(UNIFORM2, hamming(X2))
    rate_d = rdf.rate(0.125)
    alpha = threshold_alpha(rate_d, 1.0) + 0.1
    report = simulate_scheme(
        UNIFORM2, hamming(X2), 0.125, n=24, epsilon=0.15, alpha=alpha,
        mode="fixed", trials=60, seed=4,
    )
    # |Xhat| = 2: one bit per symbol, so bits/symbol ~ alpha (ceil granularity)
    assert report.bits_per_symbol == pytest.approx(alpha, abs=1.0 / 24 + 1e-12)


def test_scheme_guards_and_validation():
    with pytest.raises(TooLarge):
        simulate_scheme(UNIFORM2, hamming(X2), 0.0, n=40, epsilon=0.0, alpha=0.5,
                        mode="fixed", trials=5, seed=0)
    with pytest.raises(DomainError):
        simulate_scheme(UNIFORM2, hamming(X2), 0.125, n=16, epsilon=0.1, alpha=0.5,
                        mode="huffman", trials=5, seed=0)


def test_scheme_csv_row_shape():
    report = simulate_scheme(
        UNIFORM2, hamming(X2), 0.125, n=16, epsilon=0.15, alpha=0.6,
        mode="fixed", trials=20, seed=9,
    )
    row = report.csv_row()
    assert len(row.split(",")) == 10
