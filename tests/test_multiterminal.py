"""Two-encoder zero-delay region: points, membership, witnesses, collapse.

Core claims:
    - point rates follow the decode order: first message at Huffman length,
      second at the RI length given the first
    - exact membership via rational simplex; witnesses have support <= 5,
      sum to one, and mix coordinate-wise below the target
    - dominance and midpoint closure hold; points below a coordinate-wise
      minimum are rejected
    - with constant side information the (R_x, D_x) projection collapses to
      the single-user envelope, vertex set for vertex set
"""

import random
from fractions import Fraction

import pytest

from conftest import rand_joint_pmf
from zdsi.multiterminal import (
    build_region,
    enumerate_mt_points,
    is_achievable,
    MTRegion,
    pareto_surface,
)
from zdsi.probability import (
    hamming,
    integer_alphabet,
    joint_pmf,
    marginal_source,
)
from zdsi.quantizers import lower_convex_envelope, rd_points
from zdsi.errors import DomainError
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
