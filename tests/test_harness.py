"""Inequality reports: Santalo, trace-product, directional, cone-restricted,
the orthant Prekopa-Leindler step, and the consistency chain.

Frozen closed forms used as oracles:
    square [-1,1]^2:  |K||K*| = 8,        santalo deficit = pi^2 - 8
                      tr(M M*) = 8/9,     ball deficit = pi^2/8 - 8/9
                      chain: 64 <= (4 pi^2)(8/3)(2/3) = 64 pi^2 / 9
    orthant PL pair (square, cross):  int x1^2 = 1/3 and 1/12,
                      product 1/36 <= (pi/16)^2
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull, cKDTree

import convexlab.geometry as geometry
from convexlab.geometry import (
    Ellipsoid,
    LinearMap,
    SimplicialCone,
    apply_map,
    ball_approx,
    cross_polytope,
    cube,
    dual_cone,
    polar,
    random_ellipsoid,
    random_symmetric_polytope,
)
from convexlab.harness import (
    MC_SIGMAS,
    DeficitReport,
    OrthantRegion,
    ball_deficit,
    chain_consistency,
    cone_restricted_deficit,
    cone_sum_reconstruction,
    directional_deficit,
    orthant_pair,
    pl_triple_check,
    santalo_deficit,
    save_reports_csv,
    save_reports_jsonl,
    _mc_restricted_moment,
)
from convexlab.isotropic import isotropize
from convexlab.moments import _simplex_stack_moments, mc_volume, second_moment_matrix
from convexlab.stability import kt_family
from convexlab.yaoyao import (
    YaoYaoPartition,
    dual_partition,
    sample_measure,
    yao_yao_equipartition,
)

E1 = np.array([1.0, 0.0])


# ---------------------------------------------------------------------------
# Santalo volume product
# ---------------------------------------------------------------------------


def test_santalo_ellipsoid_equality():
    rep = santalo_deficit(random_ellipsoid(3, seed=0))
    assert rep.method == "exact"
    assert abs(rep.deficit) < 1e-10
    assert rep.passed


def test_santalo_square_exact(square):
    rep = santalo_deficit(square)
    assert rep.lhs == pytest.approx(8.0, abs=1e-12)
    assert rep.rhs == pytest.approx(math.pi**2, abs=1e-12)
    assert rep.deficit == pytest.approx(math.pi**2 - 8.0, abs=1e-12)
    assert rep.metadata["volume"] == pytest.approx(4.0, abs=1e-12)
    assert rep.metadata["volume_polar"] == pytest.approx(2.0, abs=1e-12)


def test_santalo_mc_agrees_with_exact(square):
    rep = santalo_deficit(square, method="mc", samples=400_000, seed=1)
    assert rep.method == "mc"
    assert rep.passed
    assert rep.lhs == pytest.approx(8.0, abs=rep.tolerance)


def test_santalo_nonnegative_on_random_bodies(random_bodies_2d):
    for body in random_bodies_2d:
        assert santalo_deficit(body).deficit >= -1e-8


# ---------------------------------------------------------------------------
# trace product (ball functional)
# ---------------------------------------------------------------------------


def test_ball_square_exact(square):
    rep = ball_deficit(square)
    assert rep.lhs == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert rep.rhs == pytest.approx(math.pi**2 / 8.0, abs=1e-12)
    assert rep.deficit == pytest.approx(math.pi**2 / 8.0 - 8.0 / 9.0, abs=1e-12)


def test_ball_unit_ball_value(disk):
    rep = ball_deficit(disk)
    assert rep.lhs == pytest.approx(math.pi**2 / 8.0, abs=1e-10)
    assert abs(rep.deficit) < 1e-10


def test_ball_linear_invariance(square):
    t = LinearMap(np.array([[1.3, 0.5], [-0.1, 0.8]]))
    rep = ball_deficit(apply_map(t, square))
    assert rep.lhs == pytest.approx(8.0 / 9.0, abs=1e-9)


def test_ball_nonnegative_on_random_bodies(random_bodies_3d):
    for body in random_bodies_3d:
        assert ball_deficit(body).deficit >= -1e-8


# ---------------------------------------------------------------------------
# directional inequality
# ---------------------------------------------------------------------------


def test_directional_requires_certificate(square):
    with pytest.raises(ValueError, match="certificate"):
        directional_deficit(square, E1, None)


def test_directional_square_axes(square):
    # the square's polar is isotropic already, so the certificate is clean
    _, iso, cert = isotropize(square, target="polar")
    rep = directional_deficit(iso, E1, cert)
    assert rep.rhs == pytest.approx((math.pi / 4.0) ** 2, abs=1e-12)
    assert rep.passed


def test_directional_ellipsoid_equality():
    e = random_ellipsoid(2, seed=3)
    _, iso, cert = isotropize(e, target="polar")
    for u in (E1, np.array([0.6, 0.8])):
        rep = directional_deficit(iso, u, cert)
        assert abs(rep.deficit) < 1e-9


def test_directional_mc_tolerance_is_propagated():
    """On the MC route the tolerance is four standard errors of the product
    of the two directional integrals, so it shrinks like 1/sqrt(samples)."""
    e = random_ellipsoid(3, seed=5)
    _, iso, cert = isotropize(e, target="polar")
    u = np.array([0.6, 0.0, 0.8])
    reps = [directional_deficit(iso, u, cert, method="mc", samples=s, seed=2) for s in (10**5, 4 * 10**5)]
    for rep in reps:
        assert rep.method == "mc" and rep.passed
        assert rep.tolerance == pytest.approx(4.0 * rep.metadata["stderr"], rel=1e-12)
        assert abs(rep.lhs - rep.rhs) < rep.tolerance
    assert reps[0].tolerance / reps[1].tolerance == pytest.approx(2.0, rel=0.1)
    assert reps[0].tolerance < 10.0 / math.sqrt(10**5)


def test_directional_rejects_bad_certificate(square):
    from convexlab.isotropic import IsotropicCertificate

    fake = IsotropicCertificate(
        map=LinearMap(np.eye(2)), off_diag_rel=0.5, diag_spread_rel=0.5, volume_after=1.0
    )
    with pytest.raises(ValueError, match="isotropy"):
        directional_deficit(square, E1, fake)


def test_directional_product_square(square):
    # int_K x1^2 * int_{K*} x1^2 = (4/3)(1/3), unchanged by the scaling to iso
    _, iso, cert = isotropize(square, target="polar")
    assert directional_deficit(iso, E1, cert).lhs == pytest.approx(4.0 / 9.0, abs=1e-12)


# ---------------------------------------------------------------------------
# cone-restricted inequality (dual pairing through the polar partition)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def square_pipeline():
    """Polar-isotropic square, partition of the polar-side measure, duals."""
    body = cube(2)
    _, iso, _ = isotropize(body, target="polar")
    cloud = sample_measure(polar(iso), E1, 100_000, seed=0)
    part = yao_yao_equipartition(cloud)
    return iso, part, dual_partition(part)


def test_cone_restricted_square(square_pipeline):
    iso, part, duals = square_pipeline
    for k, cone in enumerate(duals):
        rep = cone_restricted_deficit(iso, E1, cone, samples=100_000, seed=20 + k)
        assert rep.rhs == pytest.approx((math.pi / 16.0) ** 2, abs=1e-12)
        assert rep.passed, f"cone {k}: {rep.deficit} < -{rep.tolerance}"


def test_cone_sum_reconstruction(square_pipeline):
    iso, part, _ = square_pipeline
    pol = polar(iso)
    rep = cone_sum_reconstruction(pol, part, samples=100_000, seed=5)
    assert rep.metadata["two_sided"]
    assert rep.passed
    # the exact full moment is the reconstruction target
    from convexlab.moments import second_moment_matrix

    assert rep.rhs == pytest.approx(second_moment_matrix(pol).matrix[0, 0], rel=1e-9)


def test_cone_restricted_random_bodies():
    for seed in range(2):
        body = random_symmetric_polytope(2, 8, seed=seed)
        _, iso, _ = isotropize(body, target="polar")
        cloud = sample_measure(polar(iso), E1, 60_000, seed=seed)
        part = yao_yao_equipartition(cloud)
        for k, cone in enumerate(dual_partition(part)):
            rep = cone_restricted_deficit(iso, E1, cone, samples=60_000, seed=100 + k)
            assert rep.passed


# ---------------------------------------------------------------------------
# orthant pairs and the Prekopa-Leindler step
# ---------------------------------------------------------------------------


def test_orthant_pair_geometry():
    """W = D P G^{-1} on every cone of a square, a 3D and a 4D body, and one
    off-axis u: unimodular, each generator on a positive multiple of one basis
    vector (the axis generator on e_1), the first coordinate +-<x, u>, and the
    dual cone inside the orthant under W^{-T}."""
    body3 = random_symmetric_polytope(3, 10, 0)
    cases = [
        (cube(2), E1),
        (body3, np.eye(3)[0]),
        (random_symmetric_polytope(4, 16, 1), np.eye(4)[0]),
        (body3, np.array([1.0, 2.0, 2.0]) / 3.0),
    ]
    for body, u in cases:
        n = body.dim
        part = yao_yao_equipartition(sample_measure(body, u, 60_000, seed=11))
        pts = np.random.default_rng(3).standard_normal((100, n))
        for index, cone in enumerate(part.cones):
            x_region, _, w = orthant_pair(body, part, index)
            assert abs(abs(w.det) - 1.0) <= 1e-12
            heights = u @ cone.generators
            j = int(np.argmax(np.abs(heights)))
            img = w.matrix @ cone.generators
            rows = np.argmax(img, axis=0)
            assert rows[j] == 0 and sorted(rows) == list(range(n))
            assert np.min(img[rows, np.arange(n)]) > 0
            img[rows, np.arange(n)] = 0.0
            assert np.max(np.abs(img)) <= 1e-12
            np.testing.assert_allclose(
                w(pts)[:, 0], math.copysign(1.0, heights[j]) * (pts @ u), rtol=0, atol=1e-12
            )
            assert np.min(w.inverse_transpose @ dual_cone(cone).generators) >= -1e-12
        assert np.min(x_region.sample(2_000, seed=0)) >= -1e-9


def test_orthant_pair_rejects_a_tilted_transverse_generator(square):
    tilted = SimplicialCone(np.column_stack([E1, [1e-6, 1.0]]))
    part = YaoYaoPartition(
        base_direction=E1, axis=E1, cones=(tilted,) * 4,
        masses=np.ones(4), total=4.0, mass_tol=5e-3,
    )
    with pytest.raises(ValueError, match="not in the base hyperplane"):
        orthant_pair(square, part, 0)


def test_orthant_pair_hypothesis(square):
    """X x Y pairs satisfy <x, y> <= 1: they came from a polar pair."""
    cloud = sample_measure(square, E1, 60_000, seed=12)
    part = yao_yao_equipartition(cloud)
    for index in range(4):
        x_region, y_region, _ = orthant_pair(square, part, index)
        xs = x_region.sample(3_000, seed=1)
        ys = y_region.sample(3_000, seed=2)
        assert float(np.einsum("ki,ki->k", xs, ys).max()) <= 1.0 + 1e-9


def test_pl_square_cross_exact(square, cross2):
    rep = pl_triple_check(OrthantRegion(square), OrthantRegion(cross2), pairs=20_000, seed=0)
    assert rep.method == "exact"
    assert rep.metadata["integral_f"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.metadata["integral_g"] == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert rep.lhs == pytest.approx(1.0 / 36.0, abs=1e-12)
    assert rep.rhs == pytest.approx((math.pi / 16.0) ** 2, abs=1e-12)
    assert rep.passed


def test_pl_equality_on_ball_orthant(disk):
    region = OrthantRegion(disk)
    rep = pl_triple_check(region, region, pairs=20_000, seed=1)
    assert rep.metadata["integral_f"] == pytest.approx(math.pi / 16.0, abs=1e-12)
    assert abs(rep.deficit) < 1e-12
    assert rep.metadata["hypothesis_margin"] <= 0.0 + 1e-12


def test_pl_hypothesis_violation_raises(square):
    big = apply_map(LinearMap(2.0 * np.eye(2)), square)
    with pytest.raises(ValueError, match="hypothesis"):
        pl_triple_check(OrthantRegion(big), OrthantRegion(big), pairs=5_000, seed=2)


def test_orthant_region_moment_routes(disk):
    region = OrthantRegion(disk)
    exact, se = region.coordinate_moment(0)
    assert se is None and exact == pytest.approx(math.pi / 16.0, abs=1e-12)
    est, se_mc = region.coordinate_moment(0, method="mc", samples=200_000, seed=4)
    assert abs(est - exact) <= 4.0 * se_mc


def test_orthant_clip_4d_bounded():
    """A 4D body with 100 facets has 4.6e6 candidate vertex subsets once the
    orthant is added; the clip's memory must not grow with that count."""
    region = OrthantRegion(random_symmetric_polytope(4, 16, seed=1))
    tracemalloc.start()
    try:
        exact, se = region.coordinate_moment(0, method="exact")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert se is None
    assert peak < 16 * 2**20
    est, se_mc = region.coordinate_moment(0, method="mc", samples=10**6, seed=3)
    assert abs(est - exact) <= 4.0 * se_mc


def _assert_same_vertices(got, ref, tol=1e-9):
    """The same point sets within tol, with each vertex of ``got`` listed once."""
    assert np.max(cKDTree(ref).query(got)[0]) <= tol
    assert np.max(cKDTree(got).query(ref)[0]) <= tol
    assert not cKDTree(got).query_pairs(tol)


def _mapped_random(n, pairs):
    t = np.eye(n) + 0.3 * np.random.default_rng(n).standard_normal((n, n))
    return apply_map(LinearMap(t), random_symmetric_polytope(n, pairs, seed=2))



@pytest.mark.parametrize("make", [
    lambda: _mapped_random(2, 8),
    lambda: _mapped_random(3, 10),
    lambda: _mapped_random(4, 6),
    lambda: cube(2),
    lambda: cube(3),
    lambda: cube(4),  # polar and clip vertices e_i lie on 2^(n-1) facets
    lambda: cross_polytope(2),
    lambda: cross_polytope(3),
    lambda: cross_polytope(4),
], ids=["random-2d", "random-3d", "random-4d", "cube-2d", "cube-3d", "cube-4d",
        "cross-2d", "cross-3d", "cross-4d"])
def test_qhull_matches_subset_sweep(make, subset_sweep_vertices):
    """The polar, the orthant clip and the clip's exact moments agree with
    the subset sweep, also where vertices lie on more than n facets."""
    body = make()
    n = body.dim
    v = body.vertices
    norms = np.linalg.norm(v, axis=1)
    w = subset_sweep_vertices(v / norms[:, None], 1.0 / norms)
    _assert_same_vertices(polar(body).vertices, w)

    w = geometry._dedup_rows(w, 1e-10)
    clip = subset_sweep_vertices(
        np.vstack([w, -np.eye(n)]), np.concatenate([np.ones(len(w)), np.zeros(n)])
    )
    region = OrthantRegion(body)
    got = [region.coordinate_moment(i, method="exact")[0] for i in range(n)]
    _assert_same_vertices(region._verts, clip)

    # the sweep's repeats weight the centroid, which stays interior
    facets = clip[ConvexHull(clip).simplices]
    simplices = np.concatenate(
        [np.broadcast_to(clip.mean(axis=0), (len(facets), 1, n)), facets], axis=1
    )
    ref, _ = _simplex_stack_moments(simplices)
    np.testing.assert_allclose(got, np.diag(ref), rtol=1e-12)


@pytest.mark.parametrize("make", [
    lambda: kt_family(2, 0.05),
    lambda: ball_approx(3, 40, seed=2),
], ids=["kt-2d", "ball-approx-3d"])
def test_orthant_moment_of_h_polytope_matches_its_vertex_form(make):
    """Both polytope kinds clip the facets read off their polar's vertices:
    an H-polytope's polar is the hull of its scaled normals, a V-polytope's a
    vertex enumeration, and the two exact moments agree to roundoff."""
    body = make()
    got, _ = OrthantRegion(body).coordinate_moment(0)
    ref, _ = OrthantRegion(body.to_v()).coordinate_moment(0)
    assert got == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [2, 3])
def test_orthant_clip_merges_vertices_a_roundoff_apart(n):
    """Turned by 1e-12 in the (e_1, e_2) plane, the cross-polytope's orthant
    clip has two vertices 1e-12 apart near e_1, and Qhull reports both.  The
    clip lists the simplex's n + 1 vertices once each, and its moments stay
    the simplex's 2/(n+2)! to within the turn."""
    t = np.eye(n)
    t[:2, :2] = [[math.cos(1e-12), -math.sin(1e-12)], [math.sin(1e-12), math.cos(1e-12)]]
    region = OrthantRegion(apply_map(LinearMap(t), cross_polytope(n)))
    got = [region.coordinate_moment(i, method="exact")[0] for i in range(n)]
    assert region._verts.shape == (n + 1, n)
    np.testing.assert_allclose(got, 2.0 / math.factorial(n + 2), rtol=1e-10)


# ---------------------------------------------------------------------------
# chain and report plumbing
# ---------------------------------------------------------------------------


def test_chain_square(square):
    rep = chain_consistency(square)
    assert rep.lhs == pytest.approx(64.0, abs=1e-9)
    assert rep.rhs == pytest.approx(64.0 * math.pi**2 / 9.0, abs=1e-9)
    assert rep.passed


def test_chain_ball_equality(disk):
    rep = chain_consistency(disk)
    assert abs(rep.deficit) < 1e-9


def test_report_passed_logic():
    good = DeficitReport("x", 1.0, 2.0, 1.0, 1e-8, "exact", {})
    assert good.passed
    bad = DeficitReport("x", 2.0, 1.0, -1.0, 1e-8, "exact", {})
    assert not bad.passed
    two_sided_off = DeficitReport("x", 1.0, 2.0, 1.0, 1e-3, "mc", {"two_sided": True})
    assert not two_sided_off.passed
    two_sided_ok = DeficitReport("x", 1.0, 1.0005, 0.0005, 1e-3, "mc", {"two_sided": True})
    assert two_sided_ok.passed


@pytest.mark.parametrize(
    "lhs,rhs", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)]
)
def test_report_refuses_non_finite_sides(lhs, rhs):
    """A NaN deficit is never below -tolerance, so a NaN report would pass."""
    with pytest.raises(ValueError, match="finite"):
        DeficitReport("x", lhs, rhs, rhs - lhs, 1e-8, "exact", {})


def test_report_files(tmp_path, square):
    reports = [santalo_deficit(square), ball_deficit(square)]
    jsonl = tmp_path / "reps.jsonl"
    csvp = tmp_path / "reps.csv"
    save_reports_jsonl(jsonl, reports, meta={"seed": 0})
    save_reports_csv(csvp, reports, meta={"seed": 0})
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 3  # meta + 2 reports
    assert lines[0] == '{"seed": 0}'
    rows = csvp.read_text().splitlines()
    assert rows[0] == '# {"seed": 0}'
    assert rows[1].startswith("name,lhs,rhs,deficit")
    assert rows[2].split(",")[0] == "santalo"
    # an empty meta is still written; None is not
    save_reports_csv(csvp, reports, meta={})
    assert csvp.read_text().splitlines() == ["# {}"] + rows[1:]
    save_reports_csv(csvp, reports)
    assert csvp.read_text().splitlines() == rows[1:]


# ---------------------------------------------------------------------------
# the MC error rule: tolerance = MC_SIGMAS * stderr of the product
# ---------------------------------------------------------------------------

MC_N = 40_000


def _santalo_factors():
    body = random_symmetric_polytope(2, 8, seed=3)
    rep = santalo_deficit(body, method="mc", samples=MC_N, seed=4)
    (a, sa), (b, sb) = mc_volume(body, MC_N, 4), mc_volume(polar(body), MC_N, 5)
    assert (a, b) == (rep.metadata["volume"], rep.metadata["volume_polar"])
    return rep, (a, sa, b, sb), 1.0


def _chain_factors():
    body = random_symmetric_polytope(3, 8, seed=3)
    rep = chain_consistency(body, method="mc", samples=MC_N, seed=6)
    mk, mp = (second_moment_matrix(b, method="mc", samples=MC_N, seed=s)
              for b, s in ((body, 6), (polar(body), 7)))
    se_k, se_p = (math.sqrt(float(np.sum(np.diag(m.stderr) ** 2))) for m in (mk, mp))
    assert mk.trace * mp.trace == rep.metadata["trace_product"]
    return rep, (mk.trace, se_k, mp.trace, se_p), rep.metadata["gamma"] ** 2


def _directional_factors():
    _, iso, cert = isotropize(random_ellipsoid(3, seed=5), target="polar")
    u = np.array([0.6, 0.0, 0.8])
    rep = directional_deficit(iso, u, cert, method="mc", samples=MC_N, seed=8)
    a, sa = _mc_restricted_moment(iso, u, None, MC_N, 8)
    b, sb = _mc_restricted_moment(polar(iso), u, None, MC_N, 9)
    assert a * b == rep.lhs
    return rep, (a, sa, b, sb), 1.0


def _cone_factors():
    _, iso, _ = isotropize(random_symmetric_polytope(2, 8, seed=1), target="polar")
    part = yao_yao_equipartition(sample_measure(polar(iso), E1, MC_N, seed=1))
    cone = dual_partition(part)[1]
    rep = cone_restricted_deficit(iso, E1, cone, samples=MC_N, seed=2)
    m = rep.metadata
    factors = (m["integral_body"], m["stderr_body"], m["integral_polar"], m["stderr_polar"])
    # the cone cuts K, its dual cuts K*
    assert factors[:2] == _mc_restricted_moment(iso, E1, cone.contains, MC_N, 2)
    assert factors[2:] == _mc_restricted_moment(polar(iso), E1, dual_cone(cone).contains, MC_N, 3)
    return rep, factors, 1.0


def _pl_factors():
    # a rotated ellipse: its orthant moments have no exact route
    e = Ellipsoid(np.array([[2.0, 0.7], [0.7, 1.0]]))
    rep = pl_triple_check(OrthantRegion(e), OrthantRegion(polar(e)), pairs=5_000, seed=3,
                          moment_samples=MC_N)
    m = rep.metadata
    return rep, (m["integral_f"], m["stderr_f"], m["integral_g"], m["stderr_g"]), 1.0


@pytest.mark.parametrize("factors", [
    _santalo_factors, _chain_factors, _directional_factors, _cone_factors, _pl_factors,
], ids=["santalo", "chain", "directional", "cone-restricted", "pl"])
def test_mc_tolerance_is_propagated_product_error(factors):
    """Every MC check's tolerance is MC_SIGMAS standard errors of its product,
    hypot(b * s_a, a * s_b), with the polar side drawn from the next seed."""
    rep, (a, sa, b, sb), scale = factors()
    assert rep.method == "mc"
    assert rep.tolerance == pytest.approx(MC_SIGMAS * scale * math.hypot(b * sa, a * sb), rel=1e-12)
