"""Deficit reports for the volume-product inequalities and their equality cases.

Every check is phrased as ``lhs <= rhs`` and reported as a DeficitReport with
``deficit = rhs - lhs``; a report passes when ``deficit >= -tolerance``.  The
tolerance is 1e-8 on the exact route and four standard errors on the Monte
Carlo route.  Consistency checks (cone-sum reconstruction, the trace identity
inside the chain bound) are two-sided and marked as such in their metadata.

The orthant machinery at the bottom ties the cone decomposition to the
product-form Prekopa-Leindler step: one unimodular map, read off a Yao-Yao
cone's inverse generator matrix, takes the cone onto the first orthant with
its axis generator on e_1, and the body/polar pair restricted to that orthant
is handed to ``pl_triple_check``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Body,
    Ellipsoid,
    LinearMap,
    SimplicialCone,
    SymmetricHPolytope,
    SymmetricVPolytope,
    _apex_simplices,
    _dedup_rows,
    _halfspace_vertices,
    apply_map,
    dual_cone,
    polar,
    unit_ball_volume,
    write_csv,
)
from .isotropic import IsotropicCertificate
from .moments import (
    _simplex_stack_moments,
    box_moments,
    mc_volume,
    reference_ball_moment,
    rejection_sample,
    second_moment_matrix,
    volume,
)
from .yaoyao import YaoYaoPartition

EXACT_TOL = 1e-8
# Number of MC standard errors below zero a deficit may sit before failing.
MC_SIGMAS = 4.0
# Hypothesis violations larger than this mean the X, Y inputs are not a
# polar-restricted pair at all, not that the inequality is tight.
HYPOTHESIS_TOL = 1e-9


@dataclass(frozen=True)
class DeficitReport:
    """Outcome of one inequality check, ``deficit = rhs - lhs``."""

    name: str
    lhs: float
    rhs: float
    deficit: float
    tolerance: float
    method: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in ("exact", "mc"):
            raise ValueError(f"method must be 'exact' or 'mc', got {self.method!r}")
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            raise ValueError(f"{self.name}: lhs and rhs must be finite")
        scale = max(1.0, abs(self.lhs), abs(self.rhs))
        if abs(self.deficit - (self.rhs - self.lhs)) > 1e-12 * scale:
            raise ValueError("deficit does not equal rhs - lhs")
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")

    @property
    def passed(self) -> bool:
        if self.deficit < -self.tolerance:
            return False
        if self.metadata.get("two_sided") and self.deficit > self.tolerance:
            return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "deficit": self.deficit,
            "tolerance": self.tolerance,
            "method": self.method,
            "passed": self.passed,
            "metadata": dict(self.metadata),
        }


def _report(name, lhs, rhs, tolerance, method, metadata) -> DeficitReport:
    return DeficitReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        deficit=float(rhs) - float(lhs),
        tolerance=float(tolerance),
        method=method,
        metadata=metadata,
    )


def save_reports_jsonl(path, reports, meta: dict | None = None) -> None:
    """One JSON object per line; an optional meta header object comes first."""
    with open(path, "w") as fh:
        if meta is not None:
            fh.write(json.dumps(dict(meta), sort_keys=True) + "\n")
        for rep in reports:
            fh.write(json.dumps(rep.to_json_dict(), sort_keys=True) + "\n")


def save_reports_csv(path, reports, meta: dict | None = None) -> None:
    """CSV with one header row and %.10g floats (``geometry.write_csv``)."""
    header = ["name", "lhs", "rhs", "deficit", "tolerance", "method", "seed"]
    rows = []
    for rep in reports:
        seed = rep.metadata.get("seed")
        rows.append(
            [rep.name]
            + ["%.10g" % v for v in (rep.lhs, rep.rhs, rep.deficit, rep.tolerance)]
            + [rep.method, "" if seed is None else seed]
        )
    write_csv(path, header, rows, meta)


# ---------------------------------------------------------------------------
# body/polar pairs
# ---------------------------------------------------------------------------


def _pair(body: Body, seed: int, estimate, polar_estimate=None):
    """``estimate(K, seed)`` and ``polar_estimate(K*, seed + 1)``.

    Every product of a K-side and a K*-side quantity in this module is
    evaluated here, so the polar side always draws from the seed after the
    body's.  ``polar_estimate`` defaults to ``estimate``.
    """
    return estimate(body, seed), (polar_estimate or estimate)(polar(body), seed + 1)


def _product_stderr(a, sa, b, sb) -> float | None:
    """Standard error of ``a * b`` from independent errors ``sa`` and ``sb``.

    None when both factors are exact (both errors None).
    """
    if sa is None and sb is None:
        return None
    return math.hypot(b * (sa or 0.0), a * (sb or 0.0))


def _trace_stderr(mm) -> float | None:
    """Standard error of ``tr M`` from the per-entry errors; None on the exact route."""
    if mm.stderr is None:
        return None
    return float(np.sqrt(np.sum(np.diag(mm.stderr) ** 2)))


def _moment_pair(body: Body, method: str, samples: int, seed: int):
    """``(M(K), M(K*))``; on the MC route each carries per-entry standard errors."""
    return _pair(
        body, seed, lambda b, s: second_moment_matrix(b, method=method, samples=samples, seed=s)
    )


# ---------------------------------------------------------------------------
# global inequalities
# ---------------------------------------------------------------------------


def santalo_deficit(
    body: Body, method: str = "auto", samples: int = 10**6, seed: int = 0
) -> DeficitReport:
    """Volume-product deficit ``omega_n^2 - |K| |K*|`` (maximized by ellipsoids)."""
    n = body.dim
    rhs = unit_ball_volume(n) ** 2
    if method == "mc":
        estimate = lambda b, s: mc_volume(b, samples, s)
    else:
        estimate = lambda b, s: (volume(b), None)
    (vk, sk), (vp, sp) = _pair(body, seed, estimate)
    sigma = _product_stderr(vk, sk, vp, sp)
    if sigma is None:
        meta = {"seed": None, "volume": vk, "volume_polar": vp}
        return _report("santalo", vk * vp, rhs, EXACT_TOL, "exact", meta)
    meta = {
        "seed": seed,
        "samples": samples,
        "volume": vk,
        "volume_polar": vp,
        "stderr": sigma,
    }
    return _report("santalo", vk * vp, rhs, MC_SIGMAS * sigma, "mc", meta)


def ball_deficit(
    body: Body, method: str = "auto", samples: int = 10**6, seed: int = 0
) -> DeficitReport:
    """Trace-product deficit ``n (omega_n/(n+2))^2 - tr(M(K) M(K*))``.

    The right-hand side is the ellipsoid value; the functional is invariant
    under invertible linear images of the body.  On the MC route the
    tolerance propagates the per-entry standard errors of both matrices.
    """
    n = body.dim
    rhs = n * reference_ball_moment(n) ** 2
    mk, mp = _moment_pair(body, method, samples, seed)
    lhs = float(np.sum(mk.matrix * mp.matrix))
    if mk.stderr is None:
        meta = {"seed": None, "trace": mk.trace, "trace_polar": mp.trace}
        return _report("ball", lhs, rhs, EXACT_TOL, "exact", meta)
    sigma = float(
        np.sqrt(np.sum((mp.matrix * mk.stderr) ** 2) + np.sum((mk.matrix * mp.stderr) ** 2))
    )
    meta = {"seed": seed, "samples": samples, "stderr": sigma}
    return _report("ball", lhs, rhs, MC_SIGMAS * sigma, "mc", meta)


def directional_deficit(
    body: Body,
    u: np.ndarray,
    certificate: IsotropicCertificate | None,
    method: str = "auto",
    samples: int = 10**6,
    seed: int = 0,
) -> DeficitReport:
    """Per-direction moment-product deficit for an isotropic body/polar pair.

    The product is ``int_K <x,u>^2 * int_{K*} <x,u>^2``.  Requires the
    certificate produced by ``isotropize`` (the inequality is stated for
    bodies whose polar -- equivalently the body itself -- is isotropic);
    refuses to run without one.  On the Monte Carlo route both directional
    integrals are rejection-sampled and the tolerance is four standard errors
    of their product.
    """
    if certificate is None:
        raise ValueError(
            "directional deficit requires an isotropize certificate; "
            "run isotropize(body, target='polar') first"
        )
    if certificate.off_diag_rel > 1e-6 or certificate.diag_spread_rel > 1e-6:
        raise ValueError(
            "certificate does not attest isotropy: off_diag_rel="
            f"{certificate.off_diag_rel:.3e}, diag_spread_rel="
            f"{certificate.diag_spread_rel:.3e}"
        )
    n = body.dim
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    rhs = reference_ball_moment(n) ** 2
    meta = {
        "seed": None if method != "mc" else seed,
        "direction": u.tolist(),
        "off_diag_rel": certificate.off_diag_rel,
    }
    if method != "mc":
        mk, mp = _moment_pair(body, method, samples, seed)
        lhs = (u @ mk.matrix @ u) * (u @ mp.matrix @ u)
        return _report("directional", lhs, rhs, EXACT_TOL, "exact", meta)
    (i1, se1), (i2, se2) = _pair(
        body, seed, lambda b, s: _mc_restricted_moment(b, u, None, samples, s)
    )
    sigma = _product_stderr(i1, se1, i2, se2)
    meta.update(samples=samples, stderr=sigma)
    return _report("directional", i1 * i2, rhs, MC_SIGMAS * sigma, "mc", meta)


# ---------------------------------------------------------------------------
# cone-restricted inequality
# ---------------------------------------------------------------------------


def _mc_restricted_moment(
    body: Body, u: np.ndarray, region, samples: int, seed: int
) -> tuple[float, float]:
    """MC estimate of ``integral over body-and-region of <x,u>^2 dx``."""
    lo, hi = body.bounding_box()
    value, stderr, _ = box_moments(body.contains, lo, hi, samples, seed, u[:, None], region)
    return float(value[0, 0]), float(stderr[0, 0])


def cone_restricted_deficit(
    body: Body,
    u: np.ndarray,
    cone: SimplicialCone,
    samples: int = 200_000,
    seed: int = 0,
) -> DeficitReport:
    """Cone-restricted product bound: for a Yao-Yao cone A with axis through u,
    ``int_{A cap K} <x,u>^2 * int_{A* cap K*} <x,u>^2  <=  2^{-2n} (omega_n/(n+2))^2``.

    Both integrals are Monte Carlo (restricted rejection sampling); the
    tolerance is four standard errors of the product.
    """
    n = body.dim
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    dual = dual_cone(cone)
    (i1, se1), (i2, se2) = _pair(
        body,
        seed,
        lambda b, s: _mc_restricted_moment(b, u, cone.contains, samples, s),
        lambda b, s: _mc_restricted_moment(b, u, dual.contains, samples, s),
    )
    lhs = i1 * i2
    rhs = 4.0 ** (-n) * reference_ball_moment(n) ** 2
    sigma = _product_stderr(i1, se1, i2, se2)
    meta = {
        "seed": seed,
        "samples": samples,
        "integral_body": i1,
        "stderr_body": se1,
        "integral_polar": i2,
        "stderr_polar": se2,
    }
    return _report("cone-restricted", lhs, rhs, MC_SIGMAS * sigma, "mc", meta)


def cone_sum_reconstruction(
    body: Body,
    partition: YaoYaoPartition,
    samples: int = 200_000,
    seed: int = 0,
) -> DeficitReport:
    """Decomposition identity: cone-restricted moments sum to the full moment.

    Each cone integral uses an independent seed, so the comparison against the
    exact ``u^T M(K) u`` is a genuine reconstruction test rather than sample
    bookkeeping.  Two-sided: the deficit must vanish within MC tolerance.
    """
    u = partition.base_direction
    vals = []
    variances = 0.0
    for k, cone in enumerate(partition.cones):
        v, se = _mc_restricted_moment(body, u, cone.contains, samples, seed + k)
        vals.append(v)
        variances += se * se
    lhs = float(np.sum(vals))
    mm = second_moment_matrix(body, method="exact")
    rhs = float(u @ mm.matrix @ u)
    sigma = math.sqrt(variances)
    meta = {
        "seed": seed,
        "samples": samples,
        "per_cone": [float(v) for v in vals],
        "stderr": sigma,
        "two_sided": True,
    }
    return _report("cone-sum", lhs, rhs, MC_SIGMAS * sigma, "mc", meta)


# ---------------------------------------------------------------------------
# orthant restrictions and the product-form Prekopa-Leindler step
# ---------------------------------------------------------------------------


def _orthant_clip_vertices(body: Body) -> np.ndarray:
    """Vertices of ``K intersect R^n_+``, lexsorted as ``_dedup_rows`` leaves them.

    K's facets are ``<w, x> <= 1`` over the vertices w of its polar.  The
    clip's vertices are read off one Qhull of its dual points
    (``_halfspace_vertices``) about ``eps * 1``, which meets every facet of K
    with at least half its offset to spare; near repeats are merged.
    """
    w = polar(body).vertices
    n = body.dim
    a = np.vstack([w, -np.eye(n)])
    b = np.concatenate([np.ones(len(w)), np.zeros(n)])
    eps = 0.5 * float(np.min(1.0 / np.abs(w).sum(axis=1)))
    verts = _halfspace_vertices(a, b, np.full(n, eps))
    verts = _dedup_rows(verts, 1e-10)
    if verts.shape[0] < n + 1:
        raise ValueError("orthant clip produced too few vertices")
    return verts


@dataclass(frozen=True)
class OrthantRegion:
    """A symmetric body restricted to the closed positive orthant.

    Supports rejection sampling and the coordinate moment
    ``int x_i^2 dx`` -- exactly for polytopes (clip-and-triangulate) and
    axis-aligned ellipsoids (orthant symmetry), by Monte Carlo otherwise.
    """

    body: Body
    _verts: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.body.dim

    def sample(self, count: int, seed: int = 0) -> np.ndarray:
        """Uniform points of the region by rejection from its bounding box."""
        hi = np.maximum(self.body.bounding_box()[1], 1e-12)
        return rejection_sample(self.body.contains, 0.0, hi, count, seed)

    def coordinate_moment(
        self, i: int, method: str = "auto", samples: int = 10**6, seed: int = 0
    ) -> tuple[float, float | None]:
        """``int over the region of x_i^2 dx``; stderr is None on the exact route."""
        n = self.dim
        if not 0 <= i < n:
            raise ValueError("coordinate index out of range")
        if method not in ("auto", "exact", "mc"):
            raise ValueError(f"unknown method {method!r}")
        if method != "mc":
            if isinstance(self.body, (SymmetricVPolytope, SymmetricHPolytope)):
                return self._exact_polytope_moment(i), None
            if isinstance(self.body, Ellipsoid):
                q = self.body.shape
                off = np.max(np.abs(q - np.diag(np.diag(q))))
                if off <= 1e-12 * float(np.max(np.diag(q))):
                    mm = second_moment_matrix(self.body, method="exact")
                    return 2.0 ** (-n) * float(mm.matrix[i, i]), None
                if method == "exact":
                    raise ValueError("exact orthant moment needs an axis-aligned ellipsoid")
        hi = np.maximum(self.body.bounding_box()[1], 1e-12)
        # a scalar lower bound draws faster than an array of zeros
        value, stderr, _ = box_moments(
            self.body.contains, 0.0, hi, samples, seed, np.eye(n)[:, i : i + 1]
        )
        return float(value[0, 0]), float(stderr[0, 0])

    def _exact_polytope_moment(self, i: int) -> float:
        verts = self._verts
        if verts is None:
            verts = _orthant_clip_vertices(self.body)
            object.__setattr__(self, "_verts", verts)
        # about the centroid: the origin is a vertex of the clip, and the
        # simplices over the facets through it would be flat
        m, _ = _simplex_stack_moments(_apex_simplices(verts, verts.mean(axis=0)))
        return float(m[i, i])


def orthant_pair(
    body: Body, partition: YaoYaoPartition, index: int
) -> tuple[OrthantRegion, OrthantRegion, LinearMap]:
    """Map one partition cone onto the standard orthant, with its dual.

    ``W = D P G^{-1}``: G is the cone's unit generator matrix, P moves row j
    to the front and keeps the other rows in order, and
    ``D = diag(|h_j|, c, ..., c)`` with ``h_j = <g_j, u>`` and
    ``c = (|det G| / |h_j|)^{1/(n-1)}``, so ``|det W| = 1``.  The axis
    generator g_j is the one of largest |height| over u; the other n-1
    generators lie in u-perp (a ValueError is raised otherwise).  Writing
    ``x = G a``, only ``a_j g_j`` has height, so ``<x, u> = a_j h_j`` and
    ``<W x, e_1> = |h_j| a_j = +-<x, u>``.  Conversely ``W^{-1} e_1 =
    g_j / |h_j|``, the axis generator scaled to unit height.

    Returns ``(X, Y, W)`` with ``X = W(K) cap R^n_+`` and
    ``Y = W^{-T}(K*) cap R^n_+``; X and Y are a valid input pair for
    ``pl_triple_check``.
    """
    u = partition.base_direction
    cone = partition.cones[index]
    n = cone.dim
    heights = u @ cone.generators
    j = int(np.argmax(np.abs(heights)))
    order = [j] + [i for i in range(n) if i != j]
    if np.max(np.abs(heights[order[1:]])) > 1e-9:
        raise ValueError("transverse generators are not in the base hyperplane")
    h = abs(heights[j])
    scale = np.full(n, (abs(np.linalg.det(cone.generators)) / h) ** (1.0 / (n - 1)))
    scale[0] = h
    w = LinearMap(scale[:, None] * cone._inverse[order])
    x_region = OrthantRegion(apply_map(w, body))
    y_region = OrthantRegion(apply_map(LinearMap(w.inverse_transpose), polar(body)))
    return x_region, y_region, w


def pl_triple_check(
    x_region: OrthantRegion,
    y_region: OrthantRegion,
    pairs: int = 10**5,
    seed: int = 0,
    moment_samples: int = 10**6,
) -> DeficitReport:
    """Product-form Prekopa-Leindler verification for an orthant pair (X, Y).

    With ``f(s) = e^{2 s_1} 1_X(e^s) e^{sum s}`` and likewise g on Y, h on the
    unit-ball orthant, two checks run (the first coordinate is the one
    ``orthant_pair`` straightens the base direction onto):

    (a) midpoint hypothesis ``h((s+t)/2) >= sqrt(f(s) g(t))`` on sampled
        log-coordinate pairs -- after the smooth factors cancel this is the
        containment of the coordinatewise geometric mean ``sqrt(x*y)`` in
        B_2^n, i.e. ``<x, y> <= 1``;
    (b) the integrated inequality ``(int h)^2 - int f int g >= -tol`` via the
        substitution identity ``int f = int_X x_1^2 dx`` (moments module) and
        the closed form ``int h = 2^{-n} omega_n / (n+2)``.

    A hypothesis violation beyond 1e-9 raises: the inputs are then not a
    polar-restricted pair, and the deficit would be meaningless.
    """
    n = x_region.dim
    if y_region.dim != n:
        raise ValueError("X and Y dimensions differ")
    f_int, f_se = x_region.coordinate_moment(0, samples=moment_samples, seed=seed + 101)
    g_int, g_se = y_region.coordinate_moment(0, samples=moment_samples, seed=seed + 202)
    h_int = 2.0 ** (-n) * reference_ball_moment(n)
    lhs = f_int * g_int
    rhs = h_int * h_int

    xs = x_region.sample(pairs, seed + 1)
    ys = y_region.sample(pairs, seed + 2)
    dots = np.einsum("ki,ki->k", xs, ys)
    margin = float(dots.max()) - 1.0
    if margin > HYPOTHESIS_TOL:
        raise ValueError(
            f"hypothesis violated: sampled <x, y> exceeds 1 by {margin:.3e}; "
            "X and Y are not a polar-restricted pair"
        )

    sigma = _product_stderr(f_int, f_se, g_int, g_se)
    if sigma is None:
        method, tol = "exact", EXACT_TOL
    else:
        method, tol = "mc", MC_SIGMAS * sigma
    meta = {
        "seed": seed,
        "pairs": pairs,
        "hypothesis_margin": margin,
        "integral_f": f_int,
        "integral_g": g_int,
        "integral_h": h_int,
        "stderr_f": f_se,
        "stderr_g": g_se,
    }
    return _report("pl-triple", lhs, rhs, tol, method, meta)


# ---------------------------------------------------------------------------
# consistency invariants
# ---------------------------------------------------------------------------


def chain_consistency(
    body: Body, method: str = "auto", samples: int = 10**6, seed: int = 0
) -> DeficitReport:
    """Volume-product vs trace-product chain:
    ``(|K| |K*|)^((n+2)/n) <= gamma_n^2 tr M(K) tr M(K*)``.

    For isotropic K the right side also equals ``n gamma_n^2 tr(M(K) M(K*))``;
    the relative gap of that identity is reported in the metadata (it is only
    meaningful when M(K) is a multiple of the identity).
    """
    n = body.dim
    mk, mp = _moment_pair(body, method, samples, seed)
    gamma = (n + 2) * unit_ball_volume(n) ** (2.0 / n) / n
    lhs = (mk.volume * mp.volume) ** ((n + 2.0) / n)
    rhs = gamma * gamma * mk.trace * mp.trace
    trace_product = mk.trace * mp.trace
    functional = float(np.sum(mk.matrix * mp.matrix))
    identity_gap = abs(trace_product - n * functional) / max(trace_product, 1e-300)
    sigma = _product_stderr(mk.trace, _trace_stderr(mk), mp.trace, _trace_stderr(mp))
    if sigma is None:
        tol = EXACT_TOL * max(1.0, abs(rhs))
    else:
        tol = MC_SIGMAS * gamma * gamma * sigma
    meta = {
        "seed": None if sigma is None else seed,
        "identity_rel_gap": identity_gap,
        "trace_product": trace_product,
        "gamma": gamma,
    }
    return _report("chain", lhs, rhs, tol, "exact" if sigma is None else "mc", meta)

