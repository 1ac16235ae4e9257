"""Pinned outputs of the Monte Carlo paths.

Streaming reports with their per-symbol traces, the per-trial results of the
sequential scheme, prefix-uniqueness estimates and raw `sample_iid` draws
of a fixed set of cases are reduced to text lines (floats by repr, so NaN
compares as text) and hashed.  The digest was recorded with the per-symbol
encoder/decoder loop, the `searchsorted` sampler and one fresh Philox per
trial; the tabulated stream check, the comparison-sum sampler and the
re-keyed trial streams must reproduce it byte for byte.

Also pinned: the step at which an RI-infeasible protocol loses sync, and
that the re-keyed trial streams draw exactly what `_generator(seed, k)`
draws.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from zdsi.errors import SyncLoss
from zdsi.fixtures import fully_connected_example, pentagon, split_cell_channel
from zdsi.probability import (
    _generator,
    _trial_generators,
    aggregate_rows,
    distortion_matrix,
    hamming,
    integer_alphabet,
    joint_pmf,
    sample_iid,
)
from zdsi.quantizers import (
    Partition,
    QuantizerPoint,
    lower_convex_envelope,
    optimal_decoder,
    rd_points,
)
from zdsi.ri_codes import RIProtocol
from zdsi.sequential import simulate_prefix_uniqueness, simulate_scheme
from zdsi.streaming import TimeSharePlan, build_plan, run_simulation

MONTE_CARLO_DIGEST = "e1de98cf0d936cc6799b9200058c7eeda46177dd74864eb2dc028a925de6f336"

STREAM_LENGTHS = (1, 2, 101, 5000)


def _plan(pmf, d, target):
    cloud = rd_points(pmf, d)
    return build_plan(lower_convex_envelope(cloud), cloud, target)


def _pentagon_protocol_plan(codewords):
    """Singleton-partition pentagon point carrying the given codewords."""
    pmf, d = pentagon()
    partition = Partition((0, 1, 2, 3, 4))
    decoder, distortion = optimal_decoder(pmf, partition, d)
    protocol = RIProtocol(tuple(codewords), Fraction(7, 5))
    point = QuantizerPoint(
        partition, decoder, Fraction(7, 5), distortion, protocol,
        aggregate_rows(pmf, partition.cells), d,
    )
    return pmf, TimeSharePlan(point, point, Fraction(1))


def _stream_cases():
    pent, pent_d = pentagon()
    yield "pentagon-D0", pent, _plan(pent, pent_d, 0)
    split, split_d = split_cell_channel("1/4")
    vertices = lower_convex_envelope(rd_points(split, split_d)).vertices
    yield "split-mid", split, _plan(split, split_d, (vertices[0][0] + vertices[1][0]) / 2)
    fc, fc_d = fully_connected_example(4, Fraction(1, 5))
    for target in ("0", "1/20", "1/10", "1/2"):
        yield f"fc4-{target}", fc, _plan(fc, fc_d, Fraction(target))
    # thirds and sevenths: the distortion sum depends on the order of addition
    rational = distortion_matrix(
        fc.source, integer_alphabet("R", 3),
        [["0", "1/3", "2/7"], ["1/3", "0", "5/7"], ["1/7", "2/3", "0"], ["1", "1/3", "3/7"]],
    )
    vertices = lower_convex_envelope(rd_points(fc, rational)).vertices
    yield "fc4-rational", fc, _plan(fc, rational, (vertices[0][0] + vertices[1][0]) / 2)
    x = integer_alphabet("X", 2)
    perfect = joint_pmf(x, x, [["1/2", 0], [0, "1/2"]])
    yield "empty-codeword", perfect, _plan(perfect, hamming(x), 0)
    # words shared across confusable symbols: stays in sync, decodes wrongly
    yield ("colliding-words",) + _pentagon_protocol_plan(("0", "10", "11", "0", "0"))


def _stream_lines():
    for name, pmf, plan in _stream_cases():
        for n in STREAM_LENGTHS:
            for seed in (0, 7):
                report = run_simulation(pmf, plan, n, seed, trace=True)
                yield f"stream {name} n={n} seed={seed} {report!r}"


def _scheme_lines():
    binary = [Fraction(1, 2), Fraction(1, 2)]
    ternary = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    cases = (
        ("binary", binary, Fraction(1, 8), 12, 0.15, 0.7),
        ("ternary", ternary, Fraction(1, 10), 10, 0.15, 0.8),
        ("ternary-zero-rate", ternary, Fraction(3, 5), 10, 0.5, 0.5),
    )
    for name, p_x, target, n, epsilon, alpha in cases:
        d = hamming(integer_alphabet("X", len(p_x)))
        for mode in ("fixed", "variable"):
            report = simulate_scheme(
                p_x, d, target, n=n, epsilon=epsilon, alpha=alpha, mode=mode,
                trials=60, seed=5,
            )
            yield f"scheme {name} {mode} {report!r}"


def _prefix_lines():
    cases = (
        ([0.5, 0.5], 20, 0.3, 0.5, 300, 3),
        ([0.5, 0.5], 12, 0.5, 0.25, 200, 9),
        ([0.7, 0.2, 0.1, 0.0], 16, 0.25, 0.5, 200, 4),
    )
    for prior, n, r, alpha, trials, seed in cases:
        est = simulate_prefix_uniqueness(prior, n, r, alpha, trials, seed)
        yield f"prefix {prior} {n} {r} {alpha} {est!r}"


def _sample_lines():
    x3 = integer_alphabet("X", 3)
    y2 = integer_alphabet("Y", 2)
    trailing_zero = joint_pmf(x3, y2, [["1/3", "1/6"], ["1/6", "1/3"], [0, 0]])
    pmfs = (
        pentagon()[0],
        split_cell_channel("1/4")[0],
        fully_connected_example(4, Fraction(1, 5))[0],
        trailing_zero,
    )
    for i, pmf in enumerate(pmfs):
        for seed in (0, 1, 12345):
            pairs = sample_iid(pmf, 3000, seed)
            digest = hashlib.sha256(pairs.tobytes()).hexdigest()
            yield f"sample {i} {seed} {pairs.dtype.str} {pairs.shape} {digest}"


def monte_carlo_lines():
    yield from _stream_lines()
    yield from _scheme_lines()
    yield from _prefix_lines()
    yield from _sample_lines()


def test_monte_carlo_digest():
    text = "\n".join(monte_carlo_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == MONTE_CARLO_DIGEST


# (codewords, seed, message) recorded with the per-symbol decoder: "11" and
# "1" (or "" and "1") share a side-information symbol, so the decoder stops
# one bit early on the longer word
SYNC_LOSSES = (
    (("0", "10", "11", "1", "0"), 0, "decoder consumed 1 bits of 2 at t=34"),
    (("0", "10", "11", "1", "0"), 11, "decoder consumed 1 bits of 2 at t=13"),
    (("0", "1", "11", "0", "1"), 3, "decoder consumed 1 bits of 2 at t=7"),
    (("", "1", "0", "0", "1"), 3, "decoder consumed 0 bits of 1 at t=2"),
)


@pytest.mark.parametrize("codewords, seed, message", SYNC_LOSSES)
def test_infeasible_protocol_loses_sync_at_the_recorded_step(codewords, seed, message):
    pmf, plan = _pentagon_protocol_plan(codewords)
    with pytest.raises(SyncLoss) as info:
        run_simulation(pmf, plan, 1000, seed, trace=True)
    assert str(info.value) == message


@pytest.mark.parametrize("seed", (0, 7, 2**31 - 1, 2**32, 2**64 + 5))
def test_trial_generators_draw_as_fresh_generators(seed):
    streams = _trial_generators(seed)
    for k in range(40):
        rng = next(streams)
        fresh = _generator(seed, k)
        # mixed draw sizes and kinds cross Philox's four-word buffer
        assert np.array_equal(rng.random(k % 7), fresh.random(k % 7))
        assert np.array_equal(rng.random((3, 5)), fresh.random((3, 5)))
        assert np.array_equal(rng.integers(0, 1000, 3), fresh.integers(0, 1000, 3))
