"""Malformed arguments raise InvalidArgument: a ZdsiError, so the command
line reports it as a domain error, and still a ValueError for callers that
catch that."""

from fractions import Fraction

import pytest

from zdsi.errors import InvalidArgument, ZdsiError
from zdsi.fixtures import mt_binary, pentagon
from zdsi.graphs import Coloring
from zdsi.multiterminal import build_region, is_achievable
from zdsi.probability import (
    Alphabet,
    distortion_matrix,
    integer_alphabet,
    joint_pmf,
    triple_pmf,
    typewriter,
)
from zdsi.quantizers import Partition, lower_convex_envelope, rd_points
from zdsi.ri_codes import solve_ri_weights
from zdsi.streaming import build_plan, export_trace_csv, run_simulation

A2 = integer_alphabet("A", 2)


def _export_untraced_run():
    pmf, d = pentagon()
    cloud = rd_points(pmf, d)
    plan = build_plan(lower_convex_envelope(cloud), cloud, 0)
    return export_trace_csv(pmf, plan, run_simulation(pmf, plan, 10, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Partition((1, 0)),
        lambda: Alphabet("X", ()),
        lambda: Alphabet("X", ("a", "a")),
        lambda: joint_pmf(A2, A2, [[Fraction(1, 2), 0]]),
        lambda: triple_pmf((A2, A2, A2), [[[1, 0], [0, 0]]]),
        lambda: distortion_matrix(A2, A2, [[0, 1], [1]]),
        lambda: typewriter(2),
        lambda: Coloring((0, 2), 2),
        lambda: build_plan(lower_convex_envelope([(0, 1)]), [], 0),
        _export_untraced_run,
        lambda: solve_ri_weights([1, 2, 3], [2, 1]),
        lambda: solve_ri_weights([1, -1], [2, 1]),
        lambda: solve_ri_weights([1, 1], [2, 5]),
        lambda: solve_ri_weights([1, 1], [3, 1]),
        lambda: solve_ri_weights([1, 1], [2, 0]),
    ],
    ids=[
        "partition", "empty-alphabet", "repeated-symbol", "joint-shape", "triple-shape",
        "distortion-shape", "typewriter", "coloring", "plan-point", "trace-export",
        "ri-lengths", "ri-weight", "ri-mask-range", "ri-self-loop", "ri-asymmetric",
    ],
)
def test_malformed_arguments_raise_invalid_argument(call):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, ZdsiError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), "x"], ids=["nan", "inf", "-inf", "text"]
)
def test_malformed_target_coordinate_raises_invalid_argument(bad):
    region = build_region(*mt_binary())
    with pytest.raises(InvalidArgument, match="is not a finite rational") as info:
        is_achievable(region, (0, 1, bad, 0))
    assert isinstance(info.value, ZdsiError) and isinstance(info.value, ValueError)
