"""Exact and Monte Carlo volumes / second moments against closed forms.

Oracles used below (all elementary integrals):
    cube [-1,1]^n:      |K| = 2^n,        int x_i^2 = 2^n / 3
    cross |x|_1 <= 1:   |K| = 2^n / n!,   int x_i^2 = 1/3 (n=2), 2/15 (n=3)
    ball r B_2^n:       |K| = w_n r^n,    int x_i^2 = w_n r^{n+2} / (n+2)
    unit simplex conv(0, e_1..e_n): |S| = 1/n!, int x_i^2 = 2/(n+2)!
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.spatial import ConvexHull, cKDTree

from convexlab import geometry
from convexlab.geometry import (
    Ellipsoid,
    LinearMap,
    SimplicialCone,
    SymmetricHPolytope,
    SymmetricVPolytope,
    apply_map,
    cross_polytope,
    cube,
    polar,
    random_ellipsoid,
    random_symmetric_polytope,
    star_triangulation,
    unit_ball_volume,
)
from convexlab import harness, moments
from convexlab.isotropic import isotropize
from convexlab.moments import (
    MomentMatrix,
    box_chunks,
    box_moments,
    mc_second_moment,
    mc_volume,
    reference_ball_moment,
    rejection_sample,
    second_moment_matrix,
    simplex_second_moment,
    simplex_volume,
    volume,
)
from convexlab.stability import homothetic_distance, kt_family


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simplex_closed_forms(n):
    verts = np.vstack([np.zeros(n), np.eye(n)])
    assert simplex_volume(verts) == pytest.approx(1.0 / math.factorial(n), abs=1e-15)
    mm = simplex_second_moment(verts)
    expected = 2.0 / math.factorial(n + 2)
    for i in range(n):
        assert mm.matrix[i, i] == pytest.approx(expected, abs=1e-15)


def test_simplex_moment_off_diagonal():
    # int_{x,y>=0, x+y<=1} xy = 1/24
    mm = simplex_second_moment(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert mm.matrix[0, 1] == pytest.approx(1.0 / 24.0, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_volume_cube_cross(n):
    assert volume(cube(n)) == pytest.approx(2.0**n, abs=1e-10)
    assert volume(cross_polytope(n)) == pytest.approx(2.0**n / math.factorial(n), abs=1e-10)


def test_volume_ellipsoid():
    assert volume(Ellipsoid.ball(3, 0.7)) == pytest.approx(
        unit_ball_volume(3) * 0.7**3, abs=1e-12
    )
    e = random_ellipsoid(2, seed=9)
    assert volume(e) == pytest.approx(
        math.pi / math.sqrt(np.linalg.det(e.shape)), rel=1e-12
    )


def test_moment_matrix_cube_cross():
    np.testing.assert_allclose(
        second_moment_matrix(cube(2)).matrix, (4.0 / 3.0) * np.eye(2), atol=1e-12
    )
    np.testing.assert_allclose(
        second_moment_matrix(cube(3)).matrix, (8.0 / 3.0) * np.eye(3), atol=1e-12
    )
    np.testing.assert_allclose(
        second_moment_matrix(cross_polytope(2)).matrix, np.eye(2) / 3.0, atol=1e-12
    )
    np.testing.assert_allclose(
        second_moment_matrix(cross_polytope(3)).matrix, (2.0 / 15.0) * np.eye(3), atol=1e-12
    )


def test_moment_matrix_ball():
    np.testing.assert_allclose(
        second_moment_matrix(Ellipsoid.ball(2)).matrix, (math.pi / 4.0) * np.eye(2),
        atol=1e-12,
    )


def test_moment_matrix_ellipsoid_closed_form():
    """M(T B) = w_n det(T)/(n+2) * T T^t, i.e. w_n sqrt(det Q^-1)/(n+2) * Q^-1."""
    e = random_ellipsoid(3, seed=5)
    qinv = np.linalg.inv(e.shape)
    expected = unit_ball_volume(3) * math.sqrt(np.linalg.det(qinv)) / 5.0 * qinv
    np.testing.assert_allclose(second_moment_matrix(e).matrix, expected, atol=1e-10)


def test_moment_linear_image_rule(square):
    # M(T K) = det(T) T M(K) T^t
    t = LinearMap(np.array([[1.5, 0.3], [-0.2, 0.8]]))
    img = apply_map(t, square)
    expected = abs(t.det) * t.matrix @ second_moment_matrix(square).matrix @ t.matrix.T
    np.testing.assert_allclose(second_moment_matrix(img).matrix, expected, atol=1e-9)


def test_reference_ball_moment():
    assert reference_ball_moment(2) == pytest.approx(math.pi / 4.0, abs=1e-14)
    assert reference_ball_moment(3) == pytest.approx(4.0 * math.pi / 15.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Monte Carlo routes
# ---------------------------------------------------------------------------


def test_mc_volume_within_four_sigma():
    for seed, body in enumerate([cube(2), cross_polytope(3), random_ellipsoid(2, seed=1)]):
        exact = volume(body)
        est, se = mc_volume(body, 200_000, seed=seed)
        # the cube fills its own bounding box, so its estimator is exact
        assert se >= 0
        assert abs(est - exact) <= max(4.0 * se, 1e-12)


def test_mc_volume_deterministic():
    b = random_symmetric_polytope(2, 8, seed=2)
    assert mc_volume(b, 50_000, seed=7) == mc_volume(b, 50_000, seed=7)


def test_mc_second_moment_within_four_sigma(square):
    mm = mc_second_moment(square, 400_000, seed=3)
    diff = np.abs(mm.matrix - (4.0 / 3.0) * np.eye(2))
    assert np.all(diff <= 4.0 * mm.stderr + 1e-12)
    assert mm.samples == 400_000 and mm.seed == 3


def test_second_moment_matrix_mc_dispatch():
    b = random_symmetric_polytope(2, 6, seed=11)
    exact = second_moment_matrix(b, method="exact")
    est = second_moment_matrix(b, method="mc", samples=400_000, seed=5)
    assert est.stderr is not None
    assert np.all(np.abs(est.matrix - exact.matrix) <= 4.0 * est.stderr + 1e-12)


BOX_LO = np.array([-1.0, 0.0, -2.5])
BOX_HI = np.array([1.0, 0.5, 3.0])


# array bounds in 2D to 4D, and the scalar lower corner OrthantRegion.sample passes
BOXES = [
    (BOX_LO, BOX_HI),
    (np.array([-1.0, -0.5]), np.array([1.0, 0.5])),
    (0.0, np.array([1.5, 0.25])),
    (np.array([-1.0, -0.5, -2.0, -0.1]), np.array([1.0, 0.5, 2.0, 0.3])),
    (0.0, np.array([0.7, 1.2, 0.4, 2.0])),
]


# None keeps MC_CHUNK itself
@pytest.mark.parametrize("chunk", [1, 7, 49, 50, 64, None])
def test_box_chunks_concatenate_to_one_draw(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(moments, "MC_CHUNK", chunk)
    chunk = moments.MC_CHUNK
    for lo, hi in BOXES:
        n = len(hi)
        # 2 * chunk + 3 is not a multiple of the chunk
        for n_draws in (50, 2 * chunk + 3):
            whole = np.random.default_rng(4).uniform(lo, hi, (n_draws, n))
            parts = list(box_chunks(lo, hi, n_draws, 4))
            assert [len(p) for p in parts[:-1]] == [chunk] * (len(parts) - 1)
            assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("lo, hi", [
    (-np.inf, np.ones(2)),
    (np.array([np.nan, 0.0]), np.ones(2)),
    (np.zeros(3), np.array([1.0, np.inf, 1.0])),
    # both corners finite, the span overflows
    (np.full(2, -1e308), np.full(2, 1e308)),
], ids=["-inf", "nan", "inf", "overflow"])
def test_box_chunks_refuse_a_non_finite_box(lo, hi):
    with pytest.raises(ValueError, match="Monte Carlo box .* is not finite"):
        next(box_chunks(lo, hi, 10, 0))


def _in_unit_ball(pts):
    return np.einsum("ij,ij->i", pts, pts) <= 1.0


def test_rejection_sample_independent_of_chunk(monkeypatch):
    monkeypatch.setattr(moments, "MC_CHUNK", 64)
    a = rejection_sample(_in_unit_ball, BOX_LO, BOX_HI, 300, seed=2)
    monkeypatch.setattr(moments, "MC_CHUNK", 1000)
    b = rejection_sample(_in_unit_ball, BOX_LO, BOX_HI, 300, seed=2)
    assert a.shape == (300, 3)
    assert np.all(_in_unit_ball(a))
    assert a.tobytes() == b.tobytes()


def test_rejection_sample_gives_up(monkeypatch):
    monkeypatch.setattr(moments, "MAX_REJECT_ROUNDS", 3)
    monkeypatch.setattr(moments, "MC_CHUNK", 16)
    calls = []

    def reject_all(pts):
        calls.append(len(pts))
        return np.zeros(len(pts), dtype=bool)

    with pytest.raises(ValueError, match="acceptance rate too low"):
        rejection_sample(reject_all, BOX_LO, BOX_HI, 1, seed=0)
    assert calls == [16, 16, 16]


def test_box_moments_asks_region_only_about_accepted_rows(monkeypatch):
    monkeypatch.setattr(moments, "MC_CHUNK", 1000)
    asked = []

    def upper(pts):
        asked.append(pts.copy())
        return pts[:, 1] >= 0.2

    u = np.array([0.6, 0.0, 0.8])
    value, stderr, accepted = box_moments(_in_unit_ball, BOX_LO, BOX_HI, 5000, 3, u[:, None], upper)
    asked = np.concatenate(asked)
    assert len(asked) > 0 and np.all(_in_unit_ball(asked))

    pts = np.random.default_rng(3).uniform(BOX_LO, BOX_HI, (5000, 3))
    inside = _in_unit_ball(pts)
    assert len(asked) == np.count_nonzero(inside)
    h2 = (pts[inside & (pts[:, 1] >= 0.2)] @ u) ** 2
    box_vol = float(np.prod(BOX_HI - BOX_LO))
    mean = h2.sum() / 5000
    assert accepted == len(h2)
    assert value[0, 0] == pytest.approx(box_vol * mean, rel=1e-12)
    se = box_vol * math.sqrt((np.sum(h2 * h2) / 5000 - mean * mean) / 5000)
    assert stderr[0, 0] == pytest.approx(se, rel=1e-12)


E1 = np.array([1.0, 0.0])


def _directional_mc(samples):
    _, image, cert = isotropize(cube(2), target="polar")
    return harness.directional_deficit(image, E1, cert, method="mc", samples=samples)


# every Monte Carlo route that takes a sample count
NONPOSITIVE_ROUTES = {
    "mc_volume": lambda k: mc_volume(cube(2), k, 0),
    "mc_second_moment": lambda k: mc_second_moment(cube(2), k, 0),
    "directional_deficit": _directional_mc,
    "cone_restricted_deficit": lambda k: harness.cone_restricted_deficit(
        cube(2), E1, SimplicialCone(np.eye(2)), samples=k
    ),
    "coordinate_moment": lambda k: harness.OrthantRegion(cube(2)).coordinate_moment(
        0, method="mc", samples=k
    ),
    "homothetic_distance": lambda k: homothetic_distance(cube(2), Ellipsoid.ball(2), samples=k),
}


@pytest.mark.parametrize("samples", [0, -5])
@pytest.mark.parametrize("route", sorted(NONPOSITIVE_ROUTES))
def test_mc_routes_refuse_nonpositive_samples(route, samples):
    with pytest.raises(ValueError, match="positive sample count"):
        NONPOSITIVE_ROUTES[route](samples)


def test_mc_estimates_independent_of_chunk(monkeypatch):
    body = random_symmetric_polytope(3, 10, seed=4)
    u = np.array([0.6, 0.8, 0.0])
    cone = SimplicialCone(np.array([[1.0, 0.2, 0.1], [0.1, 1.0, 0.3], [0.0, 0.2, 1.0]]))
    runs = []
    for chunk in (7, 1 << 16, 10**6):
        monkeypatch.setattr(moments, "MC_CHUNK", chunk)
        mm = mc_second_moment(body, 70_000, 5)
        cone_moment = harness._mc_restricted_moment(body, u, cone.contains, 70_000, 6)
        runs.append((mm, cone_moment))
    ref_mm, ref_cone = runs[0]
    for mm, cone_moment in runs[1:]:
        # the chunk may change only the order of accumulation
        assert mm.volume == ref_mm.volume
        np.testing.assert_allclose(mm.matrix, ref_mm.matrix, rtol=1e-12, atol=0)
        np.testing.assert_allclose(mm.stderr, ref_mm.stderr, rtol=1e-12, atol=0)
        np.testing.assert_allclose(cone_moment, ref_cone, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# the Monte Carlo inner loop keeps the bits of its reference kernels
# ---------------------------------------------------------------------------


def _uniform_box_chunks(lo, hi, samples, seed):
    """Reference box draws: one broadcast ``uniform`` call per chunk."""
    rng = np.random.default_rng(seed)
    remaining = samples
    while remaining > 0:
        k = min(moments.MC_CHUNK, remaining)
        yield rng.uniform(lo, hi, size=(k, len(hi)))
        remaining -= k


def _three_operand_quadratic_form(pts, shape):
    return np.einsum("ij,jk,ik->i", pts, shape, pts)


def _three_operand_ellipsoid_contains(self, points, tol=geometry.CONTAIN_TOL):
    return _three_operand_quadratic_form(np.atleast_2d(points), self.shape) <= 1.0 + tol


def _searchsorted_contains_angular(self, pts, tol):
    """Reference polygon membership: the edge from ``searchsorted`` over the
    sorted vertex angles, then the same edge-cross decision."""
    ang = np.arctan2(self.vertices[:, 1], self.vertices[:, 0])
    order = np.argsort(ang)
    angs, vs = ang[order], self.vertices[order]
    m = len(vs)
    idx = (np.searchsorted(angs, np.arctan2(pts[:, 1], pts[:, 0]), side="right") - 1) % m
    a, b = vs[idx], vs[(idx + 1) % m]
    edge_cross = (b[:, 0] - a[:, 0]) * (pts[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        pts[:, 0] - a[:, 0]
    )
    ab_cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return edge_cross >= -tol * ab_cross


def _polygon80():
    theta = np.linspace(0.0, 2.0 * np.pi, 80, endpoint=False)
    return SymmetricVPolytope(np.column_stack([1.3 * np.cos(theta), 0.8 * np.sin(theta)]))


# one body per kernel: box draws and the ellipsoid form, then the angular
# lookup on 80 and on 2050 vertices
INNER_LOOP_BODIES = {
    "ellipsoid-3d": lambda: random_ellipsoid(3, seed=6),
    "polygon-80": _polygon80,
    "kt-2d": lambda: kt_family(2, 0.05).to_v(),
}


@pytest.mark.parametrize("name", sorted(INNER_LOOP_BODIES))
def test_mc_second_moment_bytes_match_reference_kernels(name, monkeypatch):
    make = INNER_LOOP_BODIES[name]
    fast = mc_second_moment(make(), 200_000, 11)
    monkeypatch.setattr(moments, "box_chunks", _uniform_box_chunks)
    monkeypatch.setattr(Ellipsoid, "contains", _three_operand_ellipsoid_contains)
    monkeypatch.setattr(SymmetricVPolytope, "_contains_angular", _searchsorted_contains_angular)
    ref = mc_second_moment(make(), 200_000, 11)
    assert fast.matrix.tobytes() == ref.matrix.tobytes()
    assert fast.stderr.tobytes() == ref.stderr.tobytes()
    assert fast.volume.hex() == ref.volume.hex()


def _boolean_index_rejection_sample(contains, lo, hi, count, seed):
    """Reference fixed-count sampler: reference draws, boolean row indexing."""
    kept, have = [], 0
    for pts in _uniform_box_chunks(lo, hi, moments.MAX_REJECT_ROUNDS * moments.MC_CHUNK, seed):
        acc = pts[contains(pts)]
        kept.append(acc)
        have += len(acc)
        if have >= count:
            return np.concatenate(kept)[:count]


def _boolean_index_box_moments(contains, lo, hi, samples, seed, proj=None, region=None):
    """Reference ``box_moments``: reference draws, boolean row indexing."""
    s1 = s2 = 0.0
    accepted = 0
    for pts in _uniform_box_chunks(lo, hi, samples, seed):
        acc = pts[contains(pts)]
        if region is not None:
            acc = acc[region(acc)]
        f = acc if proj is None else acc @ proj
        sq = f * f
        s1 += f.T @ f
        s2 += sq.T @ sq
        accepted += len(acc)
    box_vol = float(np.prod(hi - lo))
    mean = s1 / samples
    var = np.maximum(s2 / samples - mean**2, 0.0)
    return box_vol * mean, box_vol * np.sqrt(var / samples), accepted


def _wide_orthant(n):
    """The cone over the columns e_j - 0.15 (1, ..., 1): a widened positive orthant."""
    return SimplicialCone(np.eye(n) - 0.15)


# one body per dimension, each sampled in its bounding box and in the box of
# its positive orthant, whose lower corner is the scalar 0.0
REGION_BODIES = {
    "polygon-80": _polygon80,
    "random-3d": lambda: random_symmetric_polytope(3, 10, seed=4),
    "ellipsoid-4d": lambda: random_ellipsoid(4, seed=6),
}


@pytest.mark.parametrize("name", sorted(REGION_BODIES))
def test_box_moments_bytes_match_boolean_index_reference(name):
    body = REGION_BODIES[name]()
    n = body.dim
    lo, hi = body.bounding_box()
    u = np.linspace(1.0, 2.0, n)
    u /= np.linalg.norm(u)
    cone = _wide_orthant(n)
    cases = [
        (lo, hi, None, None),
        (lo, hi, u[:, None], cone.contains),
        (lo, hi, None, cone.contains),
        (0.0, hi, np.eye(n)[:, :1], None),
    ]
    for lo_, hi_, proj, region in cases:
        fast = box_moments(body.contains, lo_, hi_, 150_000, 9, proj, region)
        ref = _boolean_index_box_moments(body.contains, lo_, hi_, 150_000, 9, proj, region)
        assert fast[0].tobytes() == ref[0].tobytes()
        assert fast[1].tobytes() == ref[1].tobytes()
        assert fast[2] == ref[2]


@pytest.mark.parametrize("name", sorted(REGION_BODIES))
def test_rejection_sample_bytes_match_boolean_index_reference(name):
    body = REGION_BODIES[name]()
    lo, hi = body.bounding_box()
    # one row, more than one chunk ending inside a chunk, and the orthant box
    for lo_, count in ((lo, 1), (lo, 100_003), (0.0, 50_000)):
        fast = rejection_sample(body.contains, lo_, hi, count, 5)
        ref = _boolean_index_rejection_sample(body.contains, lo_, hi, count, 5)
        assert fast.tobytes() == ref.tobytes()


def test_box_chunks_hold_no_buffer_beyond_the_chunks():
    """Draining 10^6 4D points peaks at two chunks under tracemalloc: the one
    the consumer holds and the one being drawn.  A tiled span and offset
    pair would add two more, a broadcast temporary one more."""
    lo, hi = BOXES[3]
    chunk_bytes = 8 * moments.MC_CHUNK * len(hi)
    tracemalloc.start()
    try:
        for pts in box_chunks(lo, hi, 10**6, 0):
            pass
        del pts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chunk_bytes <= peak < 2 * chunk_bytes + chunk_bytes // 4


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ellipsoid_contains_matches_three_operand_form(n):
    """10^6 points: 400k in the box, 400k within 2 % of the boundary and 200k
    at relative distances 3e-12 to 1e-8 from the threshold.  The BLAS form
    decides as the three-operand einsum does wherever that form is more than
    1e-12 (relative) away from the threshold."""
    e = random_ellipsoid(n, seed=n)
    rng = np.random.default_rng(n)
    lo, hi = e.bounding_box()
    bound = 1.0 + geometry.CONTAIN_TOL
    gap = 10.0 ** rng.uniform(-11.5, -8.0, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    level = np.concatenate([rng.uniform(0.98**2, 1.02**2, 400_000), bound * (1.0 + gap)])
    near = rng.standard_normal((len(level), n))
    near *= np.sqrt(level / _three_operand_quadratic_form(near, e.shape))[:, None]
    pts = np.vstack([rng.uniform(lo, hi, (400_000, n)), near])
    q = _three_operand_quadratic_form(pts, e.shape)
    away = np.abs(q - bound) > 1e-12 * bound
    assert np.count_nonzero(away) > 0.99 * len(pts)
    np.testing.assert_array_equal(e.contains(pts)[away], (q <= bound)[away])


# ---------------------------------------------------------------------------
# one hull, one triangulation and one exact moment per polytope
# ---------------------------------------------------------------------------


@pytest.fixture
def hull_calls(monkeypatch):
    """Counts the Qhull runs and star triangulations of the geometry layer."""
    calls = {"hull": 0, "star": 0}
    real_hull, real_star = geometry.ConvexHull, geometry._star_simplices

    def counting_hull(points, *args, **kwargs):
        calls["hull"] += 1
        return real_hull(points, *args, **kwargs)

    def counting_star(body):
        calls["star"] += 1
        return real_star(body)

    monkeypatch.setattr(geometry, "ConvexHull", counting_hull)
    monkeypatch.setattr(geometry, "_star_simplices", counting_star)
    return calls


def _reference_integrals(vertices: np.ndarray):
    """Star simplices, volume and moment matrix from a fresh Qhull of the
    vertices, as computed before anything was cached."""
    n = vertices.shape[1]
    facets = vertices[ConvexHull(vertices).simplices]
    keep = np.abs(np.linalg.det(facets)) >= 1e-14 * max(
        1.0, float(np.max(np.linalg.norm(vertices, axis=1)))) ** n
    simplices = np.zeros((int(keep.sum()), n + 1, n))
    simplices[:, 1:, :] = facets[keep]
    edges = simplices[:, 1:, :] - simplices[:, :1, :]
    fact = math.factorial(n)
    vol = float(np.sum(np.abs(np.linalg.det(edges)))) / fact
    m, dets = moments._simplex_stack_moments(simplices)
    return simplices, vol, MomentMatrix(dim=n, matrix=m, volume=float(np.sum(dets / fact)))


@pytest.mark.parametrize("make", [
    lambda: cube(3),
    lambda: random_symmetric_polytope(3, 10, seed=4),  # 14 of 20 points extreme
    lambda: polar(random_symmetric_polytope(4, 16, seed=1)),
    lambda: geometry.ball_approx(3, 24, seed=2),  # moments from its polar's hull
], ids=["cube", "interior-points", "polar-4d", "h-polytope"])
def test_one_hull_and_one_triangulation_per_body(make, hull_calls):
    body = make()
    built = hull_calls["hull"]
    mm = second_moment_matrix(body)
    vol = volume(body)
    # the constructor's hull is reused when it can be; else one more Qhull.
    # An H-polytope's moments cost the one Qhull of its polar and no star.
    assert hull_calls["hull"] - built <= 1
    halfspace = isinstance(body, SymmetricHPolytope)
    if halfspace:
        with pytest.raises(TypeError, match="vertex polytope"):
            star_triangulation(body)
    simplices = None if halfspace else star_triangulation(body)
    assert hull_calls["star"] == (0 if halfspace else 1)
    after = dict(hull_calls)
    for _ in range(3):
        assert second_moment_matrix(body) is mm
        assert second_moment_matrix(body, method="exact") is mm
        assert volume(body) == vol
        if not halfspace:
            assert star_triangulation(body) is simplices
    assert hull_calls == after


@pytest.mark.parametrize("make,hulls", [
    (lambda: cube(3), 1),  # the polar's constructor
    (lambda: random_symmetric_polytope(4, 16, seed=1), 2),  # and the body's own hull
], ids=["cube", "random-4d"])
def test_polar_reads_the_body_hull(make, hulls, hull_calls):
    """The polar of a V-polytope reads its vertices off the body's hull and
    runs no halfspace intersection, so it and both bodies' moments take no
    more Qhulls than the body's hull and the polar's constructor.  The read
    vertices are closed under negation, so the polar's constructor hands its
    hull on and the polar's star reuses it."""
    body = make()
    built = hull_calls["hull"]
    pol = polar(body)
    assert pol._facets is not None
    second_moment_matrix(body)
    second_moment_matrix(pol)
    assert hull_calls["hull"] - built <= hulls
    assert hull_calls["star"] == 2


def _pm(points: np.ndarray) -> np.ndarray:
    return np.vstack([points, -points])


def _near_pairs(n: int, count: int, seed: int) -> np.ndarray:
    """Points on the sphere, so all are extreme, and their negatives, each
    off by up to 2e-11 per coordinate: symmetric only within the dedup
    tolerance, so canonicalization keeps as many rows but not the same ones."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return np.vstack([pts, -pts + rng.uniform(-2e-11, 2e-11, pts.shape)])


_CUBE3 = cube(3).vertices


@pytest.mark.parametrize("name,raw", [
    ("unsorted rows", np.random.default_rng(0).permutation(_CUBE3)),
    ("interior points", np.vstack([
        _CUBE3, _pm(np.random.default_rng(1).uniform(-0.5, 0.5, (6, 3)))])),
    ("near-duplicate rows", np.vstack([_CUBE3, _CUBE3 + 1e-13])),
    ("pairs within the dedup tolerance", _near_pairs(3, 9, seed=2)),
    ("pairs within the dedup tolerance, 2D", _near_pairs(2, 7, seed=3)),
    ("cube with face midpoints", np.vstack([_CUBE3, _pm(np.eye(3))])),
    ("4D cross-polytope image", _pm(np.random.default_rng(6).normal(size=(4, 4)))),
])
def test_hull_handoff_is_bit_identical(name, raw):
    body = SymmetricVPolytope(raw)
    text = repr(body)
    simplices, vol, mm = _reference_integrals(body.vertices)
    assert star_triangulation(body).tobytes() == simplices.tobytes()
    assert volume(body) == vol
    got = second_moment_matrix(body)
    assert got.matrix.tobytes() == mm.matrix.tobytes() and got.volume == mm.volume
    # the caches take no part in equality or repr, and cannot be written to
    assert [f.name for f in dataclasses.fields(body) if f.compare or f.repr] == ["vertices"]
    assert repr(body) == text == f"SymmetricVPolytope(vertices={body.vertices!r})"
    assert body == body
    assert not star_triangulation(body).flags.writeable
    assert not got.matrix.flags.writeable


def test_hull_handoff_guard_takes_both_paths():
    """Canonical input hands the constructor's hull on; input with points
    that are not extreme makes the triangulation hull the canonical array."""
    assert SymmetricVPolytope(_CUBE3)._facets is not None
    assert SymmetricVPolytope(np.vstack([_CUBE3, _pm(np.eye(3))]))._facets is None
    body = SymmetricVPolytope(_CUBE3)
    facets = body._facets
    star_triangulation(body)
    # the indices stay: the flag route of the polar body reads them too
    assert body._facets is facets and body._planes is not None


# ---------------------------------------------------------------------------
# halfspace polytopes: moments from the polar's hull (flag decomposition)
# ---------------------------------------------------------------------------


def _h_cross(n: int) -> SymmetricHPolytope:
    """The cross-polytope as halfspaces; its polar's points are the cube's
    vertices, whose hull merges coplanar triangles into square facets."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    return SymmetricHPolytope(signs, np.ones(len(signs)))


def _h_cube(n: int) -> SymmetricHPolytope:
    return SymmetricHPolytope(np.vstack([np.eye(n), -np.eye(n)]), np.ones(2 * n))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["cross", "cube"])
def test_h_polytope_moments_closed_forms(kind, n):
    """Cube and cross-polytope as halfspaces, without enumerating a vertex.
    The cross-polytope's polar hull has merged facets (the 4D cube's 8
    facets come as 58 Qhull simplices): its face centers must be keyed by
    true facets, and its flat simplices must not count."""
    body = _h_cross(n) if kind == "cross" else _h_cube(n)
    if kind == "cross":
        vol, diag = 2.0**n / math.factorial(n), 2.0 ** (n + 1) / math.factorial(n + 2)
    else:
        vol, diag = 2.0**n, 2.0**n / 3.0
    mm = second_moment_matrix(body)
    assert body._vrep is None
    assert volume(body) == pytest.approx(vol, rel=1e-15)
    assert mm.volume == volume(body)
    np.testing.assert_allclose(mm.matrix, diag * np.eye(n), rtol=1e-15, atol=1e-16 * diag)


_RANDOM_H = {
    "ball-approx-2d": lambda: geometry.ball_approx(2, 30, seed=1),
    "ball-approx-3d": lambda: geometry.ball_approx(3, 60, seed=2),
    "ball-approx-4d": lambda: geometry.ball_approx(4, 80, seed=3),
    "image-3d": lambda: apply_map(
        LinearMap(np.random.default_rng(4).normal(size=(3, 3)) + 2 * np.eye(3)),
        geometry.ball_approx(3, 40, seed=4)),
    "image-4d": lambda: apply_map(
        LinearMap(np.random.default_rng(5).normal(size=(4, 4)) + 2 * np.eye(4)),
        geometry.ball_approx(4, 60, seed=5)),
    "kt-2d": lambda: kt_family(2, 0.05, grid_size=256),
    "kt-3d": lambda: kt_family(3, 0.05, grid_size=2048),
}


@pytest.mark.parametrize("name", sorted(_RANDOM_H))
def test_h_polytope_moments_match_the_star_route(name, qhull_vertex_form):
    """The flag route against the star of a vertex form enumerated apart
    from the plane read the flag route shares with ``to_v``."""
    body = _RANDOM_H[name]()
    mm = second_moment_matrix(body)
    assert body._vrep is None  # no vertex form on the exact path
    vbody = qhull_vertex_form(body)
    vol, m = volume(vbody), second_moment_matrix(vbody).matrix
    assert volume(body) == pytest.approx(vol, rel=1e-13)
    np.testing.assert_allclose(mm.matrix, m, rtol=0, atol=1e-13 * np.max(np.abs(m)))


def _det3(a):
    return (a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
            - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
            + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0]))


def test_h_polytope_moments_against_long_double_reference(qhull_vertex_form):
    """3D K_t in extended precision: each vertex solves its three facet
    equations by Cramer's rule in long double, and the star of a vertex form
    enumerated apart from the flag route is summed in long double.  The flag
    route's moment error is no larger than the star route's."""
    ld = np.longdouble
    if np.finfo(ld).eps >= 1e-18:
        pytest.skip("long double is no wider than double here")
    body = kt_family(3, 0.05, grid_size=2048)
    mm = second_moment_matrix(body)
    verts, facet = body._dual_facets()
    pol = polar(body)
    simplices = geometry._hull(pol)[0]
    assert len(np.unique(facet)) == len(facet)  # simplicial: one simplex per facet
    # the polar's points in long double, from the stored normals and offsets
    rows = cKDTree(body.normals / body.offsets[:, None]).query(pol.vertices)[1]
    p = body.normals.astype(ld)[rows] / body.offsets.astype(ld)[rows][:, None]
    a = p[simplices]
    exact = np.empty((len(simplices), 3), dtype=ld)
    for j in range(3):
        b = a.copy()
        b[:, :, j] = 1
        exact[:, j] = _det3(b) / _det3(a)
    star_body = qhull_vertex_form(body)
    star = star_triangulation(star_body)[:, 1:, :]
    dist, near = cKDTree(verts[facet]).query(star.reshape(-1, 3))
    assert dist.max() < 1e-12
    s3 = exact[near].reshape(-1, 3, 3)
    w = np.abs(_det3(s3))
    tot = s3.sum(axis=1)
    ref = (np.einsum("k,kvi,kvj->ij", w, s3, s3) + np.einsum("k,ki,kj->ij", w, tot, tot)) / 120
    ref_vol = w.sum() / 6

    def err(m):
        return float(np.max(np.abs(m.astype(ld) - ref)) / np.max(np.abs(ref)))

    flag_err, star_err = err(mm.matrix), err(second_moment_matrix(star_body).matrix)
    assert flag_err <= star_err
    assert flag_err < 4e-15
    assert abs(float(volume(body) / ref_vol) - 1.0) < 1e-15


def _reference_flag_moments(body: SymmetricHPolytope) -> tuple[np.ndarray, float]:
    """The flag decomposition as first written: every determinant by
    ``np.linalg.det``, and every order gathers its own centers and adds one
    (k n x n) product.  ``moments._flag_moments`` sums the same pieces."""
    pol = polar(body)
    pts = pol.vertices
    simplices = geometry._hull(pol)[0]
    verts, facet = body._dual_facets()
    n, npts = body.dim, pts.shape[0]
    incidence = csr_matrix(
        (np.ones(simplices.size), (simplices.ravel(), np.repeat(facet, n))),
        shape=(npts, verts.shape[0]),
    )
    incidence.data[:] = 1.0
    dets = np.linalg.det(pts[simplices])
    keep = geometry._solid(dets, pts)
    simplices, facet, orient = simplices[keep], facet[keep], np.sign(dets[keep])
    centers = {}
    for k in range(1, n):
        combos = list(itertools.combinations(range(n), k))
        radix = npts ** np.arange(k, dtype=np.int64)
        codes, which = np.unique(np.sort(simplices[:, combos], axis=2) @ radix, return_inverse=True)
        keys = codes[:, None] // radix % npts
        pick = csr_matrix(
            (np.ones(keys.size), (np.repeat(np.arange(keys.shape[0]), k), keys.ravel())),
            shape=(keys.shape[0], npts),
        )
        mean = np.empty((keys.shape[0], n))
        for lo in range(0, keys.shape[0], moments.FLAG_BLOCK):
            holds = pick[lo : lo + moments.FLAG_BLOCK] @ incidence
            holds.data = (holds.data == k).astype(float)
            mean[lo : lo + moments.FLAG_BLOCK] = (holds @ verts) / np.asarray(holds.sum(axis=1))
        which = which.reshape(simplices.shape[0], len(combos))
        for j, combo in enumerate(combos):
            centers[combo] = (mean, which[:, j])
    tip = verts[facet]
    m = np.zeros((n, n))
    total = 0.0
    for perm in itertools.permutations(range(n)):
        rows = (centers[tuple(sorted(perm[:j]))] for j in range(1, n))
        c = np.stack([mean[idx] for mean, idx in rows] + [tip], axis=1)
        edges = c - tip[:, None, :]
        edges[:, -1] = tip
        w = np.linalg.det(edges) * orient * moments._parity(perm)
        s = c.sum(axis=1)
        m += (c * w[:, None, None]).reshape(-1, n).T @ c.reshape(-1, n)
        m += (s * w[:, None]).T @ s
        total += float(np.sum(w))
    fact = math.factorial(n)
    return m / (fact * (n + 1) * (n + 2)), total / fact


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_det_matches_lapack(n):
    stack = np.random.default_rng(n).normal(size=(1000, n, n))
    stack[:10] *= 1e-6
    stack[10:20, -1] = stack[10:20, 0]  # singular
    got = moments._det(np.moveaxis(stack, 0, -1))
    want = np.linalg.det(stack)
    scale = np.prod(np.linalg.norm(stack, axis=2), axis=1)  # Hadamard's bound
    assert np.max(np.abs(got - want) / scale) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_det_keeps_the_same_solid_simplices(n):
    """The polar of the H-cross-polytope is the cube, whose merged square
    facets Qhull splits with flat simplices in 4D; the closed form gives them
    exactly 0 and drops the same ones LAPACK's determinant drops."""
    pol = polar(_h_cross(n))
    pts = pol.vertices
    simplices = geometry._hull(pol)[0]
    got = moments._det(np.moveaxis(pts[simplices], 0, -1))
    keep = geometry._solid(got, pts)
    assert np.array_equal(keep, geometry._solid(np.linalg.det(pts[simplices]), pts))
    assert np.count_nonzero(~keep) == (10 if n == 4 else 0)
    assert np.all(got[~keep] == 0.0)


_FLAG_BODIES = {
    **_RANDOM_H,
    **{f"h-cross-{n}d": (lambda n=n: _h_cross(n)) for n in (2, 3, 4)},
    **{f"h-cube-{n}d": (lambda n=n: _h_cube(n)) for n in (2, 3, 4)},
    "kt-2d-default": lambda: kt_family(2, 0.05),
    "kt-3d-default": lambda: kt_family(3, 0.08),
    "kt-4d-default": lambda: kt_family(4, 0.05),
}


@pytest.mark.parametrize("name", sorted(_FLAG_BODIES))
def test_flag_moments_match_the_reference_kernel(name):
    body = _FLAG_BODIES[name]()
    m, vol = moments._flag_moments(body)
    ref_m, ref_vol = _reference_flag_moments(body)
    assert np.max(np.abs(m - ref_m)) <= 1e-14 * np.max(np.abs(ref_m))
    assert abs(vol - ref_vol) <= 1e-15 * ref_vol


@pytest.mark.parametrize("n,t", [(3, 0.08), (4, 0.05)])
def test_flag_moments_peak_no_higher_than_the_reference_kernel(n, t):
    """With the polar's hull and the vertex set cached, the kernel's own
    tracemalloc peak (5.0 and 55 MiB for the reference on these bodies)."""
    body = kt_family(n, t)
    body._dual_facets()
    peaks = []
    for kernel in (_reference_flag_moments, moments._flag_moments):
        tracemalloc.start()
        try:
            kernel(body)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]


# ---------------------------------------------------------------------------
# dataclass validation
# ---------------------------------------------------------------------------


def test_moment_matrix_validation():
    with pytest.raises(ValueError):
        MomentMatrix(dim=2, matrix=np.array([[1.0, 0.5], [0.4, 1.0]]), volume=1.0)
    with pytest.raises(ValueError):
        MomentMatrix(dim=2, matrix=np.eye(3), volume=1.0)

