"""Two-encoder zero-delay region: points, membership, witnesses, collapse.

Core claims:
    - point rates follow the decode order: first message at Huffman length,
      second at the RI length given the first
    - exact membership via rational simplex; witnesses have support <= 5,
      sum to one, and mix coordinate-wise below the target, and
      ``verify_witness`` accepts every "yes" answer and names the condition
      a planted bad witness fails
    - dominance and midpoint closure hold; points below a coordinate-wise
      minimum are rejected
    - with constant side information the (R_x, D_x) projection collapses to
      the single-user envelope, vertex set for vertex set
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import oracle_pareto_surface, rand_joint_pmf
from test_pinned_outputs import _region_problem, _region_targets
from zdsi import multiterminal, quantizers
from zdsi.multiterminal import (
    AchievabilityResult,
    build_region,
    enumerate_mt_points,
    is_achievable,
    MTRegion,
    pareto_surface,
    simultaneous_points,
    verify_witness,
)
from zdsi.probability import (
    hamming,
    integer_alphabet,
    joint_pmf,
    marginal_source,
)
from zdsi.quantizers import lower_convex_envelope, optimal_decoder, rd_points
from zdsi.errors import DomainError, InvalidWitness
from zdsi.ri_codes import huffman, solve_ri
from zdsi.fixtures import mt_binary


def _point(points, cells_x, cells_y):
    return next(
        p
        for p in points
        if p.partition_x.cells == cells_x and p.partition_y.cells == cells_y
    )


def test_correlated_binary_singletons_yx():
    pmf, dx, dy = mt_binary()
    points = enumerate_mt_points(pmf, dx, dy, "YX")
    p = _point(points, (0, 1), (0, 1))
    # V = Y decoded first at 1 bit; given V the U-graph is edgeless
    assert p.coords == (Fraction(0), Fraction(1), Fraction(0), Fraction(0))


def test_independent_binary_singletons_yx():
    x = integer_alphabet("X", 2)
    y = integer_alphabet("Y", 2)
    pmf = joint_pmf(x, y, [["1/4", "1/4"], ["1/4", "1/4"]])
    points = enumerate_mt_points(pmf, hamming(x), hamming(y), "YX")
    p = _point(points, (0, 1), (0, 1))
    assert p.rx == huffman(marginal_source(pmf))[1] == 1


def test_single_cell_both_sides_sends_nothing():
    pmf, dx, dy = mt_binary()
    for order in ("YX", "XY"):
        p = _point(enumerate_mt_points(pmf, dx, dy, order), (0, 0), (0, 0))
        assert (p.rx, p.ry) == (0, 0)
        assert (p.dx, p.dy) == (Fraction(1, 2), Fraction(1, 2))


def test_order_xy_symmetric_rates():
    rng = random.Random(3)
    pmf = rand_joint_pmf(rng, 3, 3)
    dx, dy = hamming(pmf.source), hamming(pmf.si)
    for p in enumerate_mt_points(pmf, dx, dy, "XY"):
        if p.partition_x.cells == (0, 1, 2) and p.partition_y.cells == (0, 1, 2):
            assert p.rx == huffman([m for m in marginal_source(pmf) if m > 0])[1]


def test_singleton_yx_rate_is_ri_optimum():
    rng = random.Random(5)
    for _ in range(5):
        pmf = rand_joint_pmf(rng, 3, 3)
        points = enumerate_mt_points(pmf, hamming(pmf.source), hamming(pmf.si), "YX")
        p = _point(points, (0, 1, 2), (0, 1, 2))
        assert p.rx == solve_ri(pmf)[1]


def test_membership_correlated_binary():
    pmf, dx, dy = mt_binary()
    region = build_region(pmf, dx, dy)
    yes = is_achievable(region, (0, 1, 0, 0))
    assert yes.achievable
    assert yes.witness and len(yes.witness) <= 5
    assert not is_achievable(region, (0, 0, 0, 0)).achievable


def test_membership_dominance_and_midpoints():
    rng = random.Random(7)
    pmf = rand_joint_pmf(rng, 3, 3)
    region = build_region(pmf, hamming(pmf.source), hamming(pmf.si))
    pts = region.points
    a, b = pts[3], pts[11]
    mid = tuple((ca + cb) / 2 for ca, cb in zip(a.coords, b.coords))
    res = is_achievable(region, mid)
    assert res.achievable
    bigger = tuple(c + Fraction(1, 7) for c in mid)
    assert is_achievable(region, bigger).achievable
    # below the coordinate-wise minimum nothing is achievable
    floor_rx = min(p.rx for p in pts)
    target = (floor_rx - Fraction(1, 100), Fraction(10), Fraction(10), Fraction(10))
    assert not is_achievable(region, target).achievable


def test_witness_is_valid_mixture():
    rng = random.Random(11)
    pmf = rand_joint_pmf(rng, 3, 3)
    region = build_region(pmf, hamming(pmf.source), hamming(pmf.si))
    pts = region.points
    for _ in range(10):
        support = rng.sample(range(len(pts)), k=rng.randint(1, 7))
        weights = [Fraction(rng.randint(1, 5)) for _ in support]
        total = sum(weights)
        weights = [w / total for w in weights]
        target = tuple(
            sum((w * pts[i].coords[k] for w, i in zip(weights, support)), Fraction(0))
            for k in range(4)
        )
        res = is_achievable(region, target)
        assert res.achievable
        assert len(res.witness) <= 5
        assert sum((w for w, _ in res.witness), Fraction(0)) == 1
        for k in range(4):
            mixed = sum((w * p.coords[k] for w, p in res.witness), Fraction(0))
            assert mixed <= target[k]


def test_pareto_surface_basics():
    pmf, dx, dy = mt_binary()
    region = build_region(pmf, dx, dy)
    surface = pareto_surface(region)
    coords = {p.coords for p in surface}
    assert (Fraction(0), Fraction(1), Fraction(0), Fraction(0)) in coords
    # dominated points are excluded
    for p in surface:
        for q in region.points:
            if q.coords != p.coords:
                assert not all(qc <= pc for qc, pc in zip(q.coords, p.coords))
    single = MTRegion((region.points[0],))
    assert pareto_surface(single) == [region.points[0]]


def test_constant_si_collapses_to_single_user_envelope():
    x = integer_alphabet("X", 3)
    y1 = integer_alphabet("Y", 1)
    pmf = joint_pmf(x, y1, [["1/2"], ["1/3"], ["1/6"]])
    dx, dy = hamming(x), hamming(y1)
    region = build_region(pmf, dx, dy)
    assert all(p.ry == 0 for p in region.points)
    mt_env = lower_convex_envelope([(p.dx, p.rx) for p in region.points])
    single_env = lower_convex_envelope(rd_points(pmf, dx))
    assert mt_env.vertices == single_env.vertices


def test_enumerate_rejects_unknown_order():
    pmf, dx, dy = mt_binary()
    with pytest.raises(DomainError):
        enumerate_mt_points(pmf, dx, dy, "XX")


@pytest.mark.parametrize("target", [(0, 1, 0), (0, 1, 0, 0, 0), ()])
def test_is_achievable_rejects_targets_without_four_coordinates(target):
    pmf, dx, dy = mt_binary()
    region = build_region(pmf, dx, dy)
    with pytest.raises(DomainError):
        is_achievable(region, target)


def test_simultaneous_variant_never_beats_region_rates():
    pmf, dx, dy = mt_binary()
    sim = enumerate_mt_points(pmf, dx, dy, "SIM")
    yx = enumerate_mt_points(pmf, dx, dy, "YX")
    for s, p in zip(sorted(sim, key=lambda t: (t.partition_x.cells, t.partition_y.cells)),
                    sorted(yx, key=lambda t: (t.partition_x.cells, t.partition_y.cells))):
        assert s.order == "SIM"
        assert (s.dx, s.dy) == (p.dx, p.dy)
        assert s.rx >= p.rx and s.ry == p.ry


def test_build_region_decodes_each_pair_once(monkeypatch):
    pmf = rand_joint_pmf(random.Random(13), 3, 3)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return optimal_decoder(*args, **kwargs)

    monkeypatch.setattr(quantizers, "optimal_decoder", counting)
    assert not hasattr(multiterminal, "optimal_decoder")
    region = build_region(pmf, hamming(pmf.source), hamming(pmf.si))
    # Bell(3) = 5 partitions a side: one X and one Y decoder per pair
    assert len(region.points) == 2 * 5 * 5
    assert len(calls) == 2 * 5 * 5


def _fields(p):
    return (
        p.order, p.partition_x, p.partition_y, p.coords,
        list(p.decoder_x.table.items()), list(p.decoder_y.table.items()),
    )


def test_enumerate_mt_points_equals_region_halves():
    rng = random.Random(17)
    for nx, ny in ((3, 3), (3, 4), (2, 3)):
        pmf = rand_joint_pmf(rng, nx, ny)
        dx, dy = hamming(pmf.source), hamming(pmf.si)
        points = build_region(pmf, dx, dy).points
        half = len(points) // 2
        for order, part in (("YX", points[:half]), ("XY", points[half:])):
            alone = enumerate_mt_points(pmf, dx, dy, order)
            assert [_fields(p) for p in alone] == [_fields(p) for p in part]


def test_region_takes_its_rates_from_rd_points():
    for name in ("solve_ri", "decoded_partitions", "_pair_points"):
        assert not hasattr(multiterminal, name)


def test_simultaneous_points_do_not_depend_on_point_order():
    pmf = rand_joint_pmf(random.Random(19), 3, 3)
    region = build_region(pmf, hamming(pmf.source), hamming(pmf.si))
    shuffled = list(region.points)
    random.Random(23).shuffle(shuffled)

    def by_pair(points):
        return sorted((_fields(p) for p in points), key=lambda f: (f[1].cells, f[2].cells))

    sim = simultaneous_points(region)
    assert len(sim) == 25 and all(p.order == "SIM" for p in sim)
    assert by_pair(simultaneous_points(MTRegion(tuple(shuffled)))) == by_pair(sim)


def test_pareto_surface_matches_all_pairs_oracle():
    rng = random.Random(29)
    for k in range(6):
        pmf = rand_joint_pmf(rng, rng.randint(3, 4), rng.randint(3, 4))
        points = build_region(pmf, hamming(pmf.source), hamming(pmf.si)).points
        if k % 2:
            # equal copies of some points, all in a shuffled order
            points = list(points) + [replace(p) for p in rng.sample(points, 40)]
            rng.shuffle(points)
        want = oracle_pareto_surface(points)
        got = pareto_surface(MTRegion(tuple(points)))
        assert [id(p) for p in got] == [id(p) for p in want]


def test_every_yes_answer_passes_verify_witness():
    rng = random.Random(2)
    checked = 0
    for region in (build_region(*mt_binary()), build_region(*_region_problem(rng, 3, 4))):
        targets = [p.coords for p in region.points] + _region_targets(rng, region, 6, 0)
        for target in targets:
            result = is_achievable(region, target)
            if result.achievable:
                verify_witness(region, target, result)
                checked += 1
    assert checked >= 8 + 150


def test_verify_witness_names_the_failed_condition():
    region = build_region(*mt_binary())
    target = (0, 1, 0, 0)
    good = is_achievable(region, target)
    verify_witness(region, target, good)
    ((_, p),) = good.witness
    over = _point(region.points, (0, 0), (0, 0))  # Dx = Dy = 1/2 > 0
    planted = [
        (None, "no witness"),
        (((Fraction(1, 6), p),) * 6, "6 weights, more than 5"),
        (((Fraction(1), p), (Fraction(0), over)), "not > 0"),
        (((Fraction(1, 2), p),), "sum to 1/2, not 1"),
        (((Fraction(1), replace(p)),), "not one of the region's points"),
        (((Fraction(1), over),), "Dx 1/2 exceeds the target's 0"),
    ]
    for witness, condition in planted:
        with pytest.raises(InvalidWitness, match=condition):
            verify_witness(region, target, AchievabilityResult(witness is not None, witness))
