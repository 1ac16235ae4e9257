"""The RI kernel's proof and its checker.

Core claims:
    - the partition of typewriter(9) that took the branch-and-bound seconds
      keeps the protocol that search returned
    - ``verify_ri`` accepts every cloud point of the pinned-output fixtures,
      with the point's own rate
    - ``verify_ri`` rejects a protocol with one word lengthened and one with
      two neighbors' words made prefix-related
    - with a raised cap, sparse instances of 24 and 40 symbols solve as fast
      as their largest component allows and keep the old search's protocol
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from conftest import oracle_solve_ri_weights
from test_pinned_outputs import _encoder_si_triple, _random_problem
from zdsi.errors import InfeasibleProtocol, InvalidArgument, SuboptimalProtocol, TooLarge
from zdsi.fixtures import c6, fully_connected_example, pentagon, split_cell_channel
from zdsi.graphs import build_characteristic_graph
from zdsi.probability import (
    Alphabet,
    aggregate_rows,
    distortion_matrix,
    marginal_source,
    normalized_support,
    typewriter,
)
from zdsi.quantizers import encoder_si_points, rd_points
from zdsi.ri_codes import (
    _component_lengths,
    codewords_conflict,
    solve_ri,
    solve_ri_weights,
    verify_ri,
)


def test_typewriter9_hard_partition_keeps_its_protocol():
    # recorded with the branch-and-bound that preceded the subset DP
    joint = aggregate_rows(typewriter(9), (0, 1, 2, 3, 4, 5, 6, 1, 7))
    protocol, value = solve_ri(joint)
    assert protocol.codewords == ("10", "0", "1", "0", "1", "0", "1", "11")
    assert value == Fraction(11, 9)


def _instance(induced):
    """Primitive weights, neighbor masks, kept rows and scale of a joint."""
    support, kept = normalized_support(induced)
    p = marginal_source(support)
    scale = lcm(*(q.denominator for q in p))
    weights = [q.numerator * (scale // q.denominator) for q in p]
    return weights, build_characteristic_graph(support).adjacency, kept, scale


def _pinned_clouds():
    """The clouds hashed by the pinned cloud digest."""
    problems = [pentagon(), c6(), fully_connected_example(5, "3/10"), split_cell_channel("1/4")]
    rng = random.Random(20130101)
    problems += [_random_problem(rng, 4 + k % 2) for k in range(40)]
    clouds = [rd_points(pmf, d) for pmf, d in problems]
    triple = _encoder_si_triple()
    d = distortion_matrix(
        triple.alphabets[1],
        Alphabet("R", ("a", "b")),
        [[0, Fraction(1, 3)], [Fraction(1, 2), 0], [1, Fraction(1, 5)]],
    )
    return clouds + [encoder_si_points(triple, d)]


def test_verify_ri_accepts_every_pinned_cloud_point():
    checked = 0
    for cloud in _pinned_clouds():
        for point in cloud:
            weights, adjacency, kept, scale = _instance(point.induced)
            words = [point.protocol.codewords[z] for z in kept]
            assert Fraction(verify_ri(weights, adjacency, words), scale) == point.rate
            checked += 1
    assert checked == 3 * 52 + 203 + 20 * (15 + 52) + 52


def _ring(n: int) -> list[int]:
    return [(1 << (v - 1) % n) | (1 << (v + 1) % n) for v in range(n)]


INSTANCES = [
    ([1] * 5, _ring(5)),
    ([1, 2, 1, 1, 1, 1, 1, 1], [130, 197, 10, 20, 40, 80, 34, 3]),
    ([5, 3, 3, 1], [0b0110, 0b1001, 0b1001, 0b0110]),
]


@pytest.mark.parametrize("weights,adjacency", INSTANCES)
def test_verify_ri_rejects_a_lengthened_word(weights, adjacency):
    words, total = solve_ri_weights(weights, adjacency)
    assert verify_ri(weights, adjacency, words) == total
    for v in range(len(words)):
        near = [words[u] for u in range(len(words)) if adjacency[v] >> u & 1]
        # one more bit keeps the code feasible unless a neighbor holds that word
        longer = next(words[v] + b for b in "01" if words[v] + b not in near)
        changed = list(words)
        changed[v] = longer
        with pytest.raises(SuboptimalProtocol, match=f"total weighted length {total + weights[v]}"):
            verify_ri(weights, adjacency, changed)


@pytest.mark.parametrize("weights,adjacency", INSTANCES)
def test_verify_ri_rejects_prefix_related_neighbors(weights, adjacency):
    words, _ = solve_ri_weights(weights, adjacency)
    for v, mask in enumerate(adjacency):
        for u in range(len(words)):
            if mask >> u & 1:
                changed = list(words)
                changed[v] = words[u] + "0"
                assert codewords_conflict(changed[u], changed[v])
                with pytest.raises(InfeasibleProtocol, match="prefix-related"):
                    verify_ri(weights, adjacency, changed)


def test_verify_ri_checks_its_arguments():
    weights, adjacency = INSTANCES[0]
    words, _ = solve_ri_weights(weights, adjacency)
    with pytest.raises(InvalidArgument, match="binary words"):
        verify_ri(weights, adjacency, words[:-1])
    with pytest.raises(InvalidArgument, match="binary words"):
        verify_ri(weights, adjacency, ("2",) + words[1:])
    with pytest.raises(InvalidArgument, match="non-positive weight"):
        verify_ri([0] + weights[1:], adjacency, words)
    # the checker keeps the solver's default cap
    weights, adjacency = [1] * 11, _ring(11)
    words, _ = solve_ri_weights(weights, adjacency, max_symbols=11)
    with pytest.raises(TooLarge, match="11 supported symbols exceeds the exactness cap 10"):
        verify_ri(weights, adjacency, words)


def _sparse_instances():
    """Raised-cap instances whose components are small: 12 disjoint pairs,
    and a 5-ring plus two pairs among 40 symbols, 31 of them isolated."""
    rng = random.Random(20031)
    pairs = [1 << (v ^ 1) for v in range(24)]
    few = [0] * 40
    ring = [3, 11, 17, 26, 38]
    for k, v in enumerate(ring):
        few[v] |= 1 << ring[k - 1] | 1 << ring[(k + 1) % 5]
    for a, b in ((0, 21), (5, 33)):
        few[a] |= 1 << b
        few[b] |= 1 << a
    return [
        ([rng.randint(1, 30) for _ in range(24)], pairs),
        ([rng.randint(1, 30) for _ in range(40)], few),
    ]


@pytest.mark.parametrize("weights,adjacency", _sparse_instances())
def test_raised_cap_sparse_instances_solve_per_component(weights, adjacency):
    # one table over all symbols would hold 2^24 or 2^40 entries
    n = len(weights)
    assert max(len(table) for _, table in _component_lengths(weights, adjacency)) <= 1 << 5
    words, total = solve_ri_weights(weights, adjacency, max_symbols=n)
    assert (words, total) == oracle_solve_ri_weights(weights, adjacency, max_symbols=n)
    assert total == sum(weights[v] * len(words[v]) for v in range(n))
    assert all(words[v] == "" for v in range(n) if not adjacency[v])
