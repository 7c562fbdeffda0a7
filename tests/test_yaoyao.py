"""Equipartition of the <x,u>^2 measure into 2^n cones and their duals."""

import itertools
import math

import numpy as np
import pytest

from convexlab.geometry import (
    Ellipsoid,
    SimplicialCone,
    cross_polytope,
    cube,
    dual_cone,
    random_directions,
    random_symmetric_polytope,
)
from convexlab import yaoyao
from convexlab.yaoyao import (
    MeasureSamples,
    YaoYaoPartition,
    assign_cones,
    dual_partition,
    sample_measure,
    yao_yao_equipartition,
)

E1 = np.array([1.0, 0.0])


# ---------------------------------------------------------------------------
# measure sampling
# ---------------------------------------------------------------------------


def test_sample_measure_structure(square):
    cloud = sample_measure(square, E1, 20_000, seed=0)
    assert cloud.points.shape == (20_000, 2)
    np.testing.assert_array_equal(cloud.points[1::2], -cloud.points[0::2])
    np.testing.assert_array_equal(cloud.weights, (cloud.points @ E1) ** 2)
    assert square.contains(cloud.points).all()


def test_sample_measure_deterministic(square):
    a = sample_measure(square, E1, 20_000, seed=3)
    b = sample_measure(square, E1, 20_000, seed=3)
    np.testing.assert_array_equal(a.points, b.points)


def test_sample_measure_total_estimates_moment(square):
    # mean weight * |K|-> int x1^2; loose 4-sigma-style bound
    cloud = sample_measure(square, E1, 200_000, seed=1)
    est = cloud.weights.mean() * 4.0
    assert est == pytest.approx(4.0 / 3.0, abs=0.02)


def test_sample_measure_validation(square):
    with pytest.raises(ValueError):
        sample_measure(square, E1, 5_001, seed=0)  # odd


def test_measure_samples_rejects_broken_pairs():
    pts = np.array([[1.0, 0.0], [-1.0, 0.1]])
    with pytest.raises(ValueError, match="antipodal"):
        MeasureSamples(points=pts, weights=np.ones(2), direction=E1)


def test_measure_samples_rejects_wrong_weights():
    pts = np.array([[0.5, 0.0], [-0.5, 0.0]])
    with pytest.raises(ValueError, match="weights must equal"):
        MeasureSamples(points=pts, weights=np.ones(2), direction=E1)


# ---------------------------------------------------------------------------
# equipartition
# ---------------------------------------------------------------------------


def test_equipartition_square(square):
    cloud = sample_measure(square, E1, 100_000, seed=0)
    part = yao_yao_equipartition(cloud)
    assert len(part.cones) == 4 and part.dim == 2
    assert float(part.base_direction @ part.axis) > 0
    np.testing.assert_allclose(part.mass_fractions, 0.25, rtol=5e-3)


def test_equipartition_masses_match_assignment(square):
    cloud = sample_measure(square, E1, 60_000, seed=2)
    part = yao_yao_equipartition(cloud)
    labels = assign_cones(part.cones, cloud.points)
    sums = np.bincount(labels, weights=cloud.weights, minlength=4)
    np.testing.assert_allclose(np.sort(sums), np.sort(part.masses), rtol=1e-6)
    assert part.total == pytest.approx(cloud.total, rel=1e-12)


def test_equipartition_disk_axis_aligns():
    # for the disk the Yao-Yao axis converges to u itself
    cloud = sample_measure(Ellipsoid.ball(2), E1, 400_000, seed=5)
    part = yao_yao_equipartition(cloud)
    angle = math.acos(min(1.0, abs(float(part.axis @ E1))))
    assert angle < 1e-2


@pytest.mark.parametrize("seed", [0, 1])
def test_equipartition_3d(seed):
    body = random_symmetric_polytope(3, 12, seed=seed)
    cloud = sample_measure(body, np.array([1.0, 0.0, 0.0]), 150_000, seed=seed)
    part = yao_yao_equipartition(cloud)
    assert len(part.cones) == 8
    np.testing.assert_allclose(part.mass_fractions, 0.125, rtol=5e-3)


@pytest.mark.parametrize(
    "n, verts, seed", [(3, 10, s) for s in range(20)] + [(4, 16, s) for s in range(4)]
)
def test_equipartition_random_bodies(n, verts, seed):
    """Every body of a fixed range converges and passes the mass check.  On
    some of them an axis solve's bracket collapses to float width with a
    residual just above its tolerance; that collapsed bracket is the root."""
    body = random_symmetric_polytope(n, verts, seed=seed)
    part = yao_yao_equipartition(sample_measure(body, np.eye(n)[0], 50_000, seed=seed))
    assert len(part.cones) == 2**n
    np.testing.assert_allclose(part.mass_fractions, 2.0**-n, rtol=part.mass_tol)


def test_equipartition_pinned_values():
    """The 3D and 4D axis solves are deterministic: pinned axes and masses."""
    parts = []
    for n, verts in ((3, 10), (4, 16)):
        body = random_symmetric_polytope(n, verts, seed=0)
        parts.append(yao_yao_equipartition(sample_measure(body, np.eye(n)[0], 50_000)))
    assert parts[0].axis.tolist() == pytest.approx(
        [0.9997382786056924, 0.014688181625041596, -0.01753943018107113], rel=1e-12
    )
    assert parts[1].axis.tolist() == pytest.approx(
        [0.9631505298712899, 0.13715060500498794, 0.1876457136011733, -0.13535085711780923],
        rel=1e-12,
    )
    assert parts[1].masses[:2].tolist() == pytest.approx(
        [428.1670260241321, 428.49898052791684], rel=1e-12
    )


def _stable_weighted_median(values, weights):
    """The weighted median as computed with a stable sort throughout."""
    order = np.argsort(values, kind="stable")
    w = weights[order]
    return float(np.interp(0.5 * w.sum(), np.cumsum(w) - 0.5 * w, values[order]))


def test_weighted_median_matches_the_stable_sort():
    """Distinct values, values with many ties (0.0 and -0.0 among them), and
    two tied halves of equal weight, where the median interpolates between
    the last weight of one tie run and the first of the next, so that it
    depends on the order of tied weights (an unstable sort moves it).  Ties
    fall back to the stable sort, and the median is its value bit for bit."""
    rng = np.random.default_rng(3)
    for size in (2, 8, 100, 1000, 100_000):
        distinct = rng.normal(size=size)
        rounded = np.round(distinct * 4) / 4
        rounded[::3] = 0.0
        rounded[1::7] = -0.0
        halves = rng.permutation(np.repeat([0.0, 1.0], size // 2))
        half_weights = rng.uniform(0.1, 2.0, size // 2)
        weights = np.empty(size)
        weights[halves == 0.0] = half_weights
        weights[halves == 1.0] = rng.permutation(half_weights)
        for values in (distinct, rounded, halves):
            got = yaoyao._weighted_median(values, weights)
            assert got == _stable_weighted_median(values, weights)


def test_equipartition_matches_the_stable_sort(monkeypatch):
    """3D and 4D partitions are bit for bit those of a stable-sort median."""
    for n, verts in ((3, 10), (4, 16)):
        body = random_symmetric_polytope(n, verts, seed=1)
        cloud = sample_measure(body, np.eye(n)[0], 20_000, seed=2)
        fast = yao_yao_equipartition(cloud)
        with monkeypatch.context() as m:
            m.setattr(yaoyao, "_weighted_median", _stable_weighted_median)
            ref = yao_yao_equipartition(cloud)
        assert fast.axis.tobytes() == ref.axis.tobytes()
        assert fast.masses.tobytes() == ref.masses.tobytes()
        for a, b in zip(fast.cones, ref.cones):
            assert a.generators.tobytes() == b.generators.tobytes()


def _broadcast_project(pts, split, mult, k):
    """Reference projection: ``mult`` broadcast as a row."""
    return pts[:, 1 : k + 1] - (pts[:, :1] - split) * mult[:k]


def _boolean_gather_build_tree(pts, w, tol_rel, even=False):
    """Reference partition tree: boolean row gathers and the broadcast
    projection, otherwise ``yaoyao._build_tree`` line for line."""
    m = pts.shape[1]
    s = 0.0 if even else yaoyao._weighted_median(pts[:, 0], w)
    if m == 1:
        return yaoyao._Node(s, None, None, None, s)
    up = pts[:, 0] > s if even else pts[:, 0] >= s
    pu, wu = pts[up], w[up]
    pl, wl = (None, None) if even else (pts[~up], w[~up])
    mult = np.zeros(m - 1)
    if even:
        mult[0] = yaoyao._weighted_median(pu[:, 1] / pu[:, 0], wu)
    for k in range(2 if even else 1, m):
        scale = max(yaoyao._rms(pts[:, k], w), 1e-300)
        h_up = max(yaoyao._rms(pu[:, 0] - s, wu), 1e-300)

        def phi(t, _k=k):
            mult[_k - 1] = t
            gap = _boolean_gather_build_tree(_broadcast_project(pu, s, mult, _k), wu, tol_rel).apex
            if not even:
                gap -= _boolean_gather_build_tree(_broadcast_project(pl, s, mult, _k), wl, tol_rel).apex
            return gap

        mult[k - 1] = yaoyao._solve_decreasing(phi, mult[k - 1], scale / h_up, tol_rel * scale)
    upper = _boolean_gather_build_tree(_broadcast_project(pu, s, mult, m - 1), wu, tol_rel)
    if even:
        lower = yaoyao._reflect(upper)
    else:
        lower = _boolean_gather_build_tree(_broadcast_project(pl, s, mult, m - 1), wl, tol_rel)
    return yaoyao._Node(s, mult, upper, lower, 0.5 * (upper.apex + lower.apex))


def _setitem_assign_cones(cones, points):
    """Reference cone assignment: the running best updated by boolean setitem."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    best = np.full(len(pts), -np.inf)
    idx = np.zeros(len(pts), dtype=np.intp)
    for i, cone in enumerate(cones):
        depth = cone.coordinates(pts).min(axis=1)
        better = depth > best
        best[better] = depth[better]
        idx[better] = i
    return idx


@pytest.mark.parametrize("n, verts", [(3, 10), (4, 16)])
def test_equipartition_matches_the_boolean_gather_references(n, verts, monkeypatch):
    """The partition is bit for bit that of boolean row gathers, the broadcast
    projection and setitem cone assignment."""
    body = random_symmetric_polytope(n, verts, seed=1)
    cloud = sample_measure(body, np.eye(n)[0], 20_000, seed=2)
    fast = yao_yao_equipartition(cloud)
    monkeypatch.setattr(yaoyao, "_build_tree", _boolean_gather_build_tree)
    monkeypatch.setattr(yaoyao, "assign_cones", _setitem_assign_cones)
    ref = yao_yao_equipartition(cloud)
    assert fast.axis.tobytes() == ref.axis.tobytes()
    assert fast.masses.tobytes() == ref.masses.tobytes()
    for a, b in zip(fast.cones, ref.cones):
        assert a.generators.tobytes() == b.generators.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_assign_cones_ties_go_to_the_first_cone(n):
    """Points on the faces shared by coordinate orthants have exactly equal
    depths (0 and -0) in every cone holding them, and go to the first."""
    cones = tuple(SimplicialCone(np.diag(s)) for s in itertools.product((1.0, -1.0), repeat=n))
    # every point of {-1, 0, 1}^n: all but the 2^n orthant diagonals lie on shared faces
    pts = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n)))
    depths = np.stack([c.coordinates(pts).min(axis=1) for c in cones])
    on_faces = np.count_nonzero(depths == depths.max(axis=0), axis=0) > 1
    assert np.count_nonzero(on_faces) == 3**n - 2**n
    got = assign_cones(cones, pts)
    np.testing.assert_array_equal(got, np.argmax(depths, axis=0))
    np.testing.assert_array_equal(got, _setitem_assign_cones(cones, pts))


def test_assign_cones_matches_setitem_on_partition_boundaries():
    """On a 3D partition's generator rays and shared faces, where depths tie
    within roundoff, the choice is bit for bit that of the setitem update."""
    body = random_symmetric_polytope(3, 10, seed=1)
    part = yao_yao_equipartition(sample_measure(body, np.eye(3)[0], 20_000, seed=2))
    gens = np.hstack([c.generators for c in part.cones]).T
    pairs = np.array([g[:, a] + g[:, b] for g in (c.generators for c in part.cones)
                      for a, b in itertools.combinations(range(3), 2)])
    pts = np.vstack([gens, pairs, np.zeros((1, 3))])
    np.testing.assert_array_equal(assign_cones(part.cones, pts), _setitem_assign_cones(part.cones, pts))


def test_equipartition_custom_direction(square):
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    cloud = sample_measure(square, u, 100_000, seed=4)
    part = yao_yao_equipartition(cloud)
    np.testing.assert_allclose(part.base_direction, u, atol=1e-12)
    np.testing.assert_allclose(part.mass_fractions, 0.25, rtol=5e-3)


def test_equipartition_impossible_tolerance(square):
    cloud = sample_measure(square, E1, 20_000, seed=0)
    with pytest.raises(RuntimeError):
        yao_yao_equipartition(cloud, mass_tol=1e-13)


def test_cones_partition_the_plane(square):
    """Every point lands in at least one cone, and boundary overlap is thin."""
    cloud = sample_measure(square, E1, 60_000, seed=6)
    part = yao_yao_equipartition(cloud)
    pts = random_directions(2, 5_000, np.random.default_rng(0))
    hits = np.zeros(len(pts), dtype=int)
    for cone in part.cones:
        hits += np.asarray(cone.contains(pts), dtype=int)
    assert np.all(hits >= 1)
    assert np.mean(hits > 1) < 0.01


def _solve_assign(cones, pts):
    """Cone assignment from fresh solves: the reference for the cached inverse.
    Returns the chosen index and every cone's depth (smallest coordinate)."""
    depths = np.stack([np.linalg.solve(c.generators, pts.T).min(axis=0) for c in cones])
    best = np.full(len(pts), -np.inf)
    idx = np.zeros(len(pts), dtype=np.intp)
    for i, depth in enumerate(depths):
        better = depth > best
        best[better] = depth[better]
        idx[better] = i
    return idx, depths


def _rotated_orthants(n, rng):
    """The 2^n orthants of a random orthonormal frame, as a partition."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cones = tuple(SimplicialCone(q * np.array(s)) for s in itertools.product((1.0, -1.0), repeat=n))
    return YaoYaoPartition(
        base_direction=q[:, 0], axis=q[:, 0], cones=cones,
        masses=np.ones(2**n), total=float(2**n), mass_tol=5e-3,
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_assign_cones_matches_solve(square, n):
    rng = np.random.default_rng(10 + n)
    parts = [_rotated_orthants(n, rng)]
    if n == 2:
        parts.append(yao_yao_equipartition(sample_measure(square, E1, 60_000, seed=8)))
    for part in parts:
        pts = rng.standard_normal((4000, n))
        ref, _ = _solve_assign(part.cones, pts)
        np.testing.assert_array_equal(assign_cones(part.cones, pts), ref)
        # points on generator rays lie on several cones: the choice may go to
        # any cone whose depth ties the best one within roundoff
        gens = np.hstack([c.generators for c in part.cones])
        rays = (gens[:, rng.integers(0, gens.shape[1], 500)] * rng.uniform(0.1, 3, 500)).T
        got = assign_cones(part.cones, rays)
        _, depths = _solve_assign(part.cones, rays)
        chosen = depths[got, np.arange(len(rays))]
        np.testing.assert_allclose(chosen, depths.max(axis=0), rtol=0, atol=1e-12)
        assert [set(c) for c in part.to_json_dict()["cones"]] == [{"generators"}] * 2**n


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------


def test_dual_partition_rejects_a_gap():
    """Two opposite quadrants, each listed twice: the quadrants between them
    are uncovered, although every direction has one nonnegative coordinate."""
    q1, q3 = SimplicialCone(np.eye(2)), SimplicialCone(-np.eye(2))
    part = YaoYaoPartition(
        base_direction=E1, axis=E1, cones=(q1, q3, q1, q3),
        masses=np.ones(4), total=4.0, mass_tol=5e-3,
    )
    with pytest.raises(RuntimeError, match="dual cone family does not cover the sphere"):
        dual_partition(part)


def test_dual_partition_covers(square):
    cloud = sample_measure(square, E1, 60_000, seed=7)
    part = yao_yao_equipartition(cloud)
    duals = dual_partition(part)
    assert len(duals) == 4
    pts = random_directions(2, 5_000, np.random.default_rng(1))
    hits = np.zeros(len(pts), dtype=int)
    for cone in duals:
        hits += np.asarray(cone.contains(pts), dtype=int)
    assert np.all(hits >= 1)
    # duality is involutive cone by cone
    for cone, dual in zip(part.cones, duals):
        np.testing.assert_allclose(
            dual_cone(dual).generators, cone.generators, atol=1e-9
        )
