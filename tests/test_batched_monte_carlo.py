"""The batched Monte Carlo paths against their one-trial-at-a-time oracles.

`_stream_keys` must be numpy's `SeedSequence` hash bit for bit,
`simulate_prefix_uniqueness` (blocks of trials) must equal
`conftest.oracle_prefix_uniqueness`, and `simulate_scheme` (a typical-word
scan that stops at the first chunk with a hit) must equal
`conftest.oracle_scheme`, floats compared by repr.  The block and chunk
sizes are shrunk with monkeypatch so that small cases cross them: trial
counts that are not a multiple of the block, trials with no typical word,
and first hits in the first and in the last chunk are all asserted to occur.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import oracle_prefix_uniqueness, oracle_scheme
from zdsi import ri_codes, sequential
from zdsi.cli import dispatch
from zdsi.errors import DomainError
from zdsi.fixtures import pentagon
from zdsi.probability import (
    _generator,
    _stream_key,
    _stream_keys,
    _trial_generators,
    distortion_matrix,
    entropy_bits,
    hamming,
    integer_alphabet,
    sample_iid,
)
from zdsi.sequential import (
    RateDistortionFunction,
    simulate_prefix_uniqueness,
    simulate_scheme,
    threshold_alpha,
)

KEY_SEEDS = (0, 1, 7, 12345, 2**32 - 1, 2**32, 2**64 + 5, 3**50)


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_stream_keys_match_seed_sequence(seed):
    keys = _stream_keys(seed, 0, 300)
    assert keys.dtype == np.uint64 and keys.shape == (300, 2)
    for k in range(300):
        assert np.array_equal(keys[k], _stream_key(seed, k)), k
    # a range that starts inside the first block of keys
    assert np.array_equal(_stream_keys(seed, 255, 3), keys[255:258])


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_stream_keys_across_two_entropy_words(seed):
    """k >= 2^32 adds a second 32-bit entropy word to the hash."""
    start = 2**32 - 3
    keys = _stream_keys(seed, start, 7)
    for i in range(7):
        assert np.array_equal(keys[i], _stream_key(seed, start + i)), start + i
    assert np.array_equal(_stream_keys(seed, 2**32 + 1, 2), keys[4:6])


@pytest.mark.parametrize("seed", (3, 2**64 + 5))
def test_trial_generators_across_key_blocks(seed):
    streams = _trial_generators(seed)
    for k in range(520):
        rng = next(streams)
        if k in (0, 255, 256, 257, 511, 512, 513, 519):
            assert np.array_equal(rng.random(5), _generator(seed, k).random(5)), k


def _random_prior(rng: random.Random) -> list[float]:
    """Two to four cells, some of them (never all) of zero weight."""
    while True:
        weights = [rng.choice([0, 0, 1, 2, 3, 7]) for _ in range(rng.randint(2, 4))]
        if any(weights):
            total = sum(weights)
            return [w / total for w in weights]


PREFIX_CASES = [random.Random(f"prefix {i}") for i in range(12)]


@pytest.mark.parametrize("case", range(len(PREFIX_CASES)))
def test_prefix_uniqueness_matches_per_trial_oracle(case, monkeypatch):
    rng = PREFIX_CASES[case]
    prior = _random_prior(rng)
    n = rng.randint(1, 14)
    r = rng.choice([0.0, 0.2, 0.4, 0.6])
    alpha = rng.choice([0.1, 0.25, 0.5, 0.8, 1.0])
    trials = rng.randint(1, 60)
    seed = rng.choice([0, 1, rng.randrange(2**40), 2**64 + 5])
    count = math.ceil(2.0 ** (n * r))
    prefix_len = max(1, math.ceil(n * alpha))
    if case % 2:  # blocks of 1-4 trials
        monkeypatch.setattr(
            sequential, "PREFIX_BLOCK_UNIFORMS", (count + 1) * prefix_len * rng.randint(1, 4)
        )
    got = simulate_prefix_uniqueness(prior, n, r, alpha, trials, seed)
    assert repr(got) == repr(oracle_prefix_uniqueness(prior, n, r, alpha, trials, seed))


def test_prefix_uniqueness_blocks_with_a_remainder(monkeypatch):
    prior, n, r, alpha, seed = [0.5, 0.0, 0.5], 12, 0.5, 0.5, 9
    count, prefix_len = 64, 6
    monkeypatch.setattr(sequential, "PREFIX_BLOCK_UNIFORMS", 3 * (count + 1) * prefix_len + 5)
    want = oracle_prefix_uniqueness(prior, n, r, alpha, 10, seed)  # blocks of 3, 3, 3, 1
    assert 0 < want.estimate < 1
    assert repr(simulate_prefix_uniqueness(prior, n, r, alpha, 10, seed)) == repr(want)
    # the default block (168 trials here) with a remainder
    monkeypatch.undo()
    want = oracle_prefix_uniqueness(prior, n, r, alpha, 400, seed)
    assert repr(simulate_prefix_uniqueness(prior, n, r, alpha, 400, seed)) == repr(want)


def _scheme_case(rng: random.Random):
    """Random source, distortion, target and sizes for `simulate_scheme`."""
    m = rng.randint(2, 3)
    weights = [rng.randint(1, 4) for _ in range(m)]
    p_x = [Fraction(w, sum(weights)) for w in weights]
    x = integer_alphabet("X", m)
    if rng.random() < 0.5:
        d = hamming(x)
    else:
        d = distortion_matrix(
            x, integer_alphabet("R", m),
            [[0 if i == j else Fraction(rng.randint(1, 7), 7) for j in range(m)] for i in range(m)],
        )
    # up to a quarter past d_max, where the prior is a point mass
    d_max = RateDistortionFunction(p_x, d).d_max
    target = Fraction(rng.randint(1, 5), 4) * Fraction(d_max).limit_denominator(64)
    return dict(
        p_x=p_x, d=d, target_d=target, n=rng.randint(2, 12),
        epsilon=rng.choice([0.1, 0.2, 0.3]), alpha=rng.choice([0.2, 0.5, 0.75, 1.0]),
        mode=rng.choice(["fixed", "variable"]), trials=rng.randint(1, 30),
        seed=rng.randrange(2**33), delta=rng.choice([-1.0, 0.0, 0.02, 0.05, 0.2]),
    )


SCHEME_CASES = [random.Random(f"scheme {i}") for i in range(14)]


@pytest.mark.parametrize("case", range(len(SCHEME_CASES)))
def test_scheme_matches_per_trial_oracle(case, monkeypatch):
    rng = SCHEME_CASES[case]
    kwargs = _scheme_case(rng)
    if case % 2:  # chunks of 1-5 words
        monkeypatch.setattr(sequential, "SCAN_UNIFORMS", kwargs["n"] * rng.randint(1, 5))
    want, _ = oracle_scheme(**kwargs)
    assert repr(simulate_scheme(**kwargs)) == repr(want)


def test_scheme_scan_hits_in_first_and_last_chunks(monkeypatch):
    """Binary source at D = 1/8: 156 words in two chunks of 78."""
    kwargs = dict(
        p_x=[Fraction(1, 2)] * 2, d=hamming(integer_alphabet("X", 2)), target_d=Fraction(1, 8),
        n=12, epsilon=0.15, alpha=0.7, mode="variable", trials=40, seed=11, delta=0.02,
    )
    monkeypatch.setattr(sequential, "SCAN_UNIFORMS", 12 * 78)
    want, first_hits = oracle_scheme(**kwargs)
    count = math.ceil(2.0 ** (12 * want.codebook_rate))
    assert count == 156
    assert None in first_hits  # no typical word: every chunk scanned
    assert any(h is not None and h < 78 for h in first_hits)
    assert any(h is not None and h >= 78 for h in first_hits)  # the last chunk
    assert repr(simulate_scheme(**kwargs)) == repr(want)


def test_scheme_default_alpha_is_the_threshold_rule():
    p_x = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    d = hamming(integer_alphabet("X", 3))
    rate, prior = RateDistortionFunction(p_x, d).rate_and_prior(0.1)
    h = entropy_bits([q for q in prior if q > 0])
    alpha = min(1.0, threshold_alpha(rate + 0.15, h) + 0.1)
    got = simulate_scheme(p_x, d, Fraction(1, 10), n=10, epsilon=0.15, trials=20, seed=3)
    assert got.alpha == alpha
    want = simulate_scheme(p_x, d, Fraction(1, 10), n=10, epsilon=0.15, alpha=alpha, trials=20, seed=3)
    assert repr(got) == repr(want)
    # a point-mass prior (D past d_max) streams the whole word
    assert simulate_scheme(p_x, d, Fraction(3, 5), n=6, epsilon=0.5, trials=2).alpha == 1.0


def test_one_rate_and_prior_per_simulate_seq(monkeypatch, capsys):
    calls = []
    original = RateDistortionFunction.rate_and_prior

    def counting(self, d):
        calls.append(d)
        return original(self, d)

    monkeypatch.setattr(RateDistortionFunction, "rate_and_prior", counting)
    argv = ["simulate-seq", "--example", "pentagon", "--D", "1/2", "--n", "6", "--trials", "3"]
    assert dispatch(argv) == 0
    assert calls == [0.5]
    assert capsys.readouterr().out.startswith("alpha,n,R,pc_bound")


def test_one_huffman_routine():
    assert not hasattr(ri_codes, "_huffman_codes")
    assert sequential.huffman_codes is ri_codes.huffman_codes
    assert list(ri_codes.huffman((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))[0]) == \
        ri_codes.huffman_codes([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])


def test_sample_iid_negative_n_is_a_domain_error():
    with pytest.raises(DomainError, match=r"^n must be >= 0$"):
        sample_iid(pentagon()[0], -1, seed=0)


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "zdsi", "examples"], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].startswith("pentagon: ")
