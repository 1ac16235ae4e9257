"""Planted-fault tests for the benchmark's own output checks.

Each test takes a correct job output, plants one fault, and requires the
job's check to reject it.  Run with either of

    python3 zdbench/selftest.py
    python3 -m pytest zdbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from zdsi import fixtures, graphs  # noqa: E402
from zdsi import multiterminal as MT  # noqa: E402
from zdsi import probability as P  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def rejected(job, output) -> str:
    try:
        job.check(output)
    except checks.CheckFailed as exc:
        return str(exc)
    raise AssertionError(f"planted fault passed the {job.name} check")


def pentagon_job():
    pmf, d = fixtures.pentagon()
    rng = random.Random(1)
    job = workloads.single_user_zd("pentagon", pmf, d, rng)
    return job, job.run()


def replace_point(output, index, point):
    cloud, curve, plan, csv = output
    cloud = list(cloud)
    cloud[index] = point
    return cloud, curve, plan, csv


def test_clean_outputs_pass():
    job, out = pentagon_job()
    job.check(out)
    mt, region_out = mt_job()
    mt.check(region_out)


def test_rate_off_by_one_64th():
    job, out = pentagon_job()
    index = next(i for i, p in enumerate(out[0]) if p.rate > 0)
    point = out[0][index]
    bad = dataclasses.replace(point, rate=point.rate + Fraction(1, 64))
    assert "rate" in rejected(job, replace_point(out, index, bad))


def test_infeasible_codeword_pair():
    job, out = pentagon_job()
    index = next(
        i for i, p in enumerate(out[0]) if graphs.build_characteristic_graph(p.induced).edges
    )
    point = out[0][index]
    u, v = sorted(graphs.build_characteristic_graph(point.induced).edges)[0]
    words = list(point.protocol.codewords)
    words[v] = words[u]
    bad = dataclasses.replace(point, protocol=dataclasses.replace(point.protocol, codewords=tuple(words)))
    assert "infeasible" in rejected(job, replace_point(out, index, bad))


def mt_job():
    rng = random.Random(7)
    weights = workloads.random_weights(rng, 3, 3, 2)
    total = sum(map(sum, weights))
    x, y = P.integer_alphabet("X", 3), P.integer_alphabet("Y", 3)
    pmf = P.joint_pmf(x, y, [[Fraction(v, total) for v in row] for row in weights])
    dx, dy = P.hamming(x), P.hamming(y)
    region = MT.build_region(pmf, dx, dy)
    # an achievable target whose witness needs two base points, then a certified "no"
    queries = []
    for _ in range(200):
        target, _ = workloads.mt_targets(rng, region, 1)[0]
        result = MT.is_achievable(region, target)
        if result.achievable and len(result.witness) >= 2:
            queries.append((target, None))
            break
    queries.append(workloads.mt_targets(rng, region, 2)[1])
    job = workloads.mt_job("mt", pmf, dx, dy, queries)
    return job, job.run()


def with_result(output, index, result):
    region, results, latency, text = output
    results = list(results)
    results[index] = result
    return region, results, latency, text


def test_witness_weight_dropped():
    job, out = mt_job()
    result = out[1][0]
    bad = dataclasses.replace(result, witness=result.witness[1:])
    assert "witness" in rejected(job, with_result(out, 0, bad))


def test_achievable_verdict_flipped():
    job, out = mt_job()
    flipped_yes = MT.AchievabilityResult(False, None)
    assert "unachievable" in rejected(job, with_result(out, 0, flipped_yes))
    flipped_no = MT.AchievabilityResult(True, out[1][0].witness)
    assert "achievable" in rejected(job, with_result(out, 1, flipped_no))


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
