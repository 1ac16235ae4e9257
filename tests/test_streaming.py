"""Streaming codec: plans, instantaneous parsing, bit-exact synchronization.

Core claims:
    - build_plan picks the bracketing envelope vertices with the exact weight
    - the decoder consumes exactly the emitted bits at every stage, for any
      seed, and reproduces h(f(x), y) symbol for symbol
    - empirical rate and distortion approach the plan's exact values
    - parsing works bit by bit: prefix-sharing candidates require reading the
      full codeword, empty-codeword candidates consume nothing
    - the tabulated sync check reports exactly what the step-by-step
      encoder/decoder loop reports, including the step where sync is lost
"""

import random
from fractions import Fraction

import pytest

from conftest import oracle_stream_report, rand_joint_pmf
from zdsi.errors import BelowMinimumDistortion, DomainError, SyncLoss
from zdsi.probability import (
    aggregate_rows,
    fully_connected,
    hamming,
    integer_alphabet,
    joint_pmf,
    typewriter,
)
from zdsi.quantizers import (
    Partition,
    QuantizerPoint,
    lower_convex_envelope,
    optimal_decoder,
    rd_points,
)
from zdsi.ri_codes import RIProtocol
from zdsi.streaming import (
    StreamDecoder,
    StreamEncoder,
    TimeSharePlan,
    build_plan,
    export_trace_csv,
    run_simulation,
)


def fc_plan(target):
    pmf = fully_connected(4, Fraction(1, 5))
    cloud = rd_points(pmf, hamming(pmf.source))
    curve = lower_convex_envelope(cloud)
    return pmf, build_plan(curve, cloud, target)


def pentagon_plan():
    pmf = typewriter(5)
    cloud = rd_points(pmf, hamming(pmf.source))
    curve = lower_convex_envelope(cloud)
    return pmf, build_plan(curve, cloud, 0)


def figure_pentagon_plan():
    """Singleton-partition pentagon point carrying the classic witness code."""
    pmf = typewriter(5)
    d = hamming(pmf.source)
    partition = Partition((0, 1, 2, 3, 4))
    decoder, distortion = optimal_decoder(pmf, partition, d)
    protocol = RIProtocol(("0", "10", "11", "0", "1"), Fraction(7, 5))
    point = QuantizerPoint(
        partition, decoder, Fraction(7, 5), distortion, protocol,
        aggregate_rows(pmf, partition.cells), d,
    )
    return pmf, TimeSharePlan(point, point, Fraction(1))


def test_build_plan_midpoint_lambda():
    _, plan = fc_plan(Fraction(1, 10))
    assert plan.lambda_weight == Fraction(1, 2)
    assert (plan.point1.distortion, plan.point1.rate) == (0, 2)
    assert (plan.point2.distortion, plan.point2.rate) == (Fraction(1, 5), 0)
    assert plan.rate == 1 and plan.distortion == Fraction(1, 10)


def test_build_plan_vertex_and_beyond():
    _, plan = fc_plan(Fraction(0))
    assert plan.lambda_weight == 1 and plan.point1 is plan.point2
    assert plan.rate == 2
    _, beyond = fc_plan(Fraction(1, 2))
    assert beyond.rate == 0
    assert beyond.point1.partition.num_cells == 1


def test_build_plan_below_minimum():
    pmf = fully_connected(4, Fraction(1, 5))
    cloud = rd_points(pmf, hamming(pmf.source))
    curve = lower_convex_envelope(cloud)
    with pytest.raises(BelowMinimumDistortion):
        build_plan(curve, cloud, Fraction(-1, 100))


def test_decode_reads_full_codeword_among_prefix_sharing_candidates():
    pmf, plan = figure_pentagon_plan()
    encoder = StreamEncoder(plan, 1)
    decoder = StreamDecoder(plan, 1)
    # x = symbol "3" (index 2); y = "3" (index 2) has support {"2", "3"}
    word = encoder.encode_step(2)
    assert word == "11"
    xhat, used = decoder.decode_step(list(word), 2)
    assert used == 2 and xhat == 2


def test_single_cell_plan_consumes_no_bits():
    pmf, plan = fc_plan(Fraction(1, 2))
    report = run_simulation(pmf, plan, 200, seed=0)
    assert report.total_bits == 0
    assert report.rate == 0.0


def test_singleton_candidate_with_empty_codeword():
    x = integer_alphabet("X", 2)
    pmf = joint_pmf(x, x, [["1/2", 0], [0, "1/2"]])
    cloud = rd_points(pmf, hamming(x))
    curve = lower_convex_envelope(cloud)
    plan = build_plan(curve, cloud, 0)
    report = run_simulation(pmf, plan, 100, seed=3)
    assert report.total_bits == 0 and report.distortion == 0.0


def test_round_trip_and_trace():
    pmf, plan = pentagon_plan()
    report = run_simulation(pmf, plan, 300, seed=11, trace=True)
    assert report.sync_errors == 0 and report.distortion == 0.0
    assert len(report.trace) == 300
    for t, x, y, word, xhat in report.trace:
        assert x == xhat  # lossless plan reproduces exactly
    text = export_trace_csv(pmf, plan, report)
    lines = text.splitlines()
    assert lines[0] == "t,x,y,z,codeword,xhat"
    assert len(lines) == 301


def test_deterministic_given_seed():
    pmf, plan = fc_plan(Fraction(1, 10))
    a = run_simulation(pmf, plan, 2000, seed=21)
    b = run_simulation(pmf, plan, 2000, seed=21)
    assert a == b
    c = run_simulation(pmf, plan, 2000, seed=22)
    assert a.total_bits != c.total_bits or a.distortion != c.distortion


def test_single_step_run():
    pmf, plan = pentagon_plan()
    report = run_simulation(pmf, plan, 1, seed=5)
    assert report.total_bits in (1, 2)  # one codeword, length 1 or 2


def test_time_share_rate_and_distortion_converge():
    pmf, plan = fc_plan(Fraction(1, 10))
    report = run_simulation(pmf, plan, 50_000, seed=8)
    assert report.sync_errors == 0
    assert abs(report.rate - float(plan.rate)) <= 0.02
    assert report.distortion <= float(plan.distortion) + 0.01


def test_sync_loss_on_truncated_stream():
    pmf, plan = figure_pentagon_plan()
    decoder = StreamDecoder(plan, 1)
    with pytest.raises(SyncLoss):
        decoder.decode_step(["1"], 2)  # candidates "10"/"11" need two bits


def test_schedule_boundary_exact():
    pmf, plan = fc_plan(Fraction(1, 10))
    n = 101
    k = plan.stages_of_first(n)
    assert k == 51  # ceil(101/2)
    encoder = StreamEncoder(plan, n)
    lossless_words = {encoder.encode_step(x % 4) for x in range(k)}
    assert all(len(w) == 2 for w in lossless_words)
    zero_words = {encoder.encode_step(x % 4) for x in range(k, n)}
    assert zero_words == {""}


def _outcome(simulate, pmf, plan, n, seed):
    try:
        return simulate(pmf, plan, n, seed, trace=True)
    except SyncLoss as exc:
        return str(exc)


def _arbitrary_code_point(rng, pmf, d):
    """Singleton partition with random codewords, usually RI-infeasible."""
    partition = Partition(tuple(range(pmf.nrows)))
    decoder, distortion = optimal_decoder(pmf, partition, d)
    words = tuple(rng.choice(("", "0", "1", "00", "01", "10", "11")) for _ in range(pmf.nrows))
    return QuantizerPoint(
        partition, decoder, Fraction(0), distortion, RIProtocol(words, Fraction(0)),
        aggregate_rows(pmf, partition.cells), d,
    )


def test_tabulated_check_matches_step_by_step_decoder():
    rng = random.Random(12)
    losses = 0
    for case in range(60):
        pmf = rand_joint_pmf(rng, rng.randint(2, 4), rng.randint(2, 4))
        d = hamming(pmf.source)
        if case % 2:
            plan = TimeSharePlan(
                _arbitrary_code_point(rng, pmf, d),
                _arbitrary_code_point(rng, pmf, d),
                Fraction(rng.randint(0, 4), 4),
            )
        else:
            cloud = rd_points(pmf, d)
            curve = lower_convex_envelope(cloud)
            lo, hi = curve.vertices[0][0], curve.vertices[-1][0]
            plan = build_plan(curve, cloud, lo + (hi - lo) * Fraction(rng.randint(0, 4), 4))
        n, seed = rng.choice((1, 2, 7, 300)), rng.randrange(1000)
        got = _outcome(run_simulation, pmf, plan, n, seed)
        assert got == _outcome(oracle_stream_report, pmf, plan, n, seed)
        losses += isinstance(got, str)
    assert 5 <= losses <= 25  # both outcomes are exercised


def test_run_simulation_rejects_empty_block():
    pmf, plan = pentagon_plan()
    with pytest.raises(DomainError):
        run_simulation(pmf, plan, 0, seed=1)
