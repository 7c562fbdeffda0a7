"""Deficit reports for the volume-product inequalities and their equality cases.

Every check is phrased as ``lhs <= rhs`` and reported as a DeficitReport with
``deficit = rhs - lhs``; a report passes when ``deficit >= -tolerance``.  The
tolerance is 1e-8 on the exact route and four standard errors on the Monte
Carlo route.  Consistency checks (cone-sum reconstruction, the trace identity
inside the chain bound) are two-sided and marked as such in their metadata.

The orthant machinery at the bottom ties the cone decomposition to the
product-form Prekopa-Leindler step: a Yao-Yao cone is sheared so its axis
generator lands on the base direction, straightened onto the first orthant,
and the body/polar pair restricted to that orthant is handed to
``pl_triple_check``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .geometry import (
    Body,
    Ellipsoid,
    LinearMap,
    SimplicialCone,
    SymmetricHPolytope,
    SymmetricVPolytope,
    _dedup_in_order,
    _halfspace_vertices,
    apply_map,
    dual_cone,
    orthonormal_basis,
    polar,
    unit_ball_volume,
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
from .yaoyao import YaoYaoPartition, cone_to_orthant, shear_partition

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
        meta = {k: v for k, v in self.metadata.items()}
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "deficit": self.deficit,
            "tolerance": self.tolerance,
            "method": self.method,
            "passed": self.passed,
            "metadata": meta,
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
    """CSV with one header row; metadata is carried in a leading # comment."""
    with open(path, "w", newline="") as fh:
        if meta is not None:
            fh.write("# " + json.dumps(dict(meta), sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "lhs", "rhs", "deficit", "tolerance", "method", "seed"])
        for rep in reports:
            seed = rep.metadata.get("seed")
            writer.writerow(
                [rep.name]
                + ["%.10g" % v for v in (rep.lhs, rep.rhs, rep.deficit, rep.tolerance)]
                + [rep.method, "" if seed is None else seed]
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
        vk, sk = mc_volume(body, samples, seed)
        vp, sp = mc_volume(polar(body), samples, seed + 1)
        sigma = math.hypot(vp * sk, vk * sp)
        meta = {
            "seed": seed,
            "samples": samples,
            "volume": vk,
            "volume_polar": vp,
            "stderr": sigma,
        }
        return _report("santalo", vk * vp, rhs, MC_SIGMAS * sigma, "mc", meta)
    vk = volume(body)
    vp = volume(polar(body))
    meta = {"seed": None, "volume": vk, "volume_polar": vp}
    return _report("santalo", vk * vp, rhs, EXACT_TOL, "exact", meta)


def _trace_product(body: Body, method: str, samples: int, seed: int):
    """tr(M(K) M(K*)) with a propagated standard error on the MC route."""
    mk = second_moment_matrix(body, method=method, samples=samples, seed=seed)
    mp = second_moment_matrix(polar(body), method=method, samples=samples, seed=seed + 1)
    value = float(np.sum(mk.matrix * mp.matrix))
    if mk.stderr is None and mp.stderr is None:
        return value, None, mk, mp
    sk = mk.stderr if mk.stderr is not None else 0.0
    sp = mp.stderr if mp.stderr is not None else 0.0
    sigma = float(np.sqrt(np.sum((mp.matrix * sk) ** 2) + np.sum((mk.matrix * sp) ** 2)))
    return value, sigma, mk, mp


def ball_deficit(
    body: Body, method: str = "auto", samples: int = 10**6, seed: int = 0
) -> DeficitReport:
    """Trace-product deficit ``n (omega_n/(n+2))^2 - tr(M(K) M(K*))``.

    The right-hand side is the ellipsoid value; the functional is invariant
    under invertible linear images of the body.
    """
    n = body.dim
    rhs = n * reference_ball_moment(n) ** 2
    lhs, sigma, mk, mp = _trace_product(body, method, samples, seed)
    if sigma is None:
        meta = {"seed": None, "trace": mk.trace, "trace_polar": mp.trace}
        return _report("ball", lhs, rhs, EXACT_TOL, "exact", meta)
    meta = {"seed": seed, "samples": samples, "stderr": sigma}
    return _report("ball", lhs, rhs, MC_SIGMAS * sigma, "mc", meta)


def directional_product(
    body: Body, u: np.ndarray, method: str = "auto", samples: int = 10**6, seed: int = 0
) -> float:
    """``(u^T M(K) u) * (u^T M(K*) u)`` for unit u."""
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    mk = second_moment_matrix(body, method=method, samples=samples, seed=seed)
    mp = second_moment_matrix(polar(body), method=method, samples=samples, seed=seed + 1)
    return float((u @ mk.matrix @ u) * (u @ mp.matrix @ u))


def directional_deficit(
    body: Body,
    u: np.ndarray,
    certificate: IsotropicCertificate | None,
    method: str = "auto",
    samples: int = 10**6,
    seed: int = 0,
) -> DeficitReport:
    """Per-direction moment-product deficit for an isotropic body/polar pair.

    Requires the certificate produced by ``isotropize`` (the inequality is
    stated for bodies whose polar -- equivalently the body itself -- is
    isotropic); refuses to run without one.  On the Monte Carlo route both
    directional integrals are rejection-sampled and the tolerance is four
    standard errors of their product.
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
        lhs = directional_product(body, u, method=method, samples=samples, seed=seed)
        return _report("directional", lhs, rhs, EXACT_TOL, "exact", meta)
    i1, se1 = _mc_restricted_moment(body, u, None, samples, seed)
    i2, se2 = _mc_restricted_moment(polar(body), u, None, samples, seed + 1)
    sigma = math.hypot(i2 * se1, i1 * se2)
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
    i1, se1 = _mc_restricted_moment(body, u, cone.contains, samples, seed)
    i2, se2 = _mc_restricted_moment(polar(body), u, dual.contains, samples, seed + 1)
    lhs = i1 * i2
    rhs = 4.0 ** (-n) * reference_ball_moment(n) ** 2
    sigma = math.hypot(i2 * se1, i1 * se2)
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


def _body_halfspaces(body: Body) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(body, SymmetricHPolytope):
        return body.normals, body.offsets
    if isinstance(body, SymmetricVPolytope):
        w = polar(body).vertices
        return w, np.ones(len(w))
    raise TypeError("halfspace form requires a polytope")


def _orthant_clip_vertices(body: Body) -> np.ndarray:
    """Vertices of ``K intersect R^n_+``, deduped in the order they are found.

    Bodies with many facets go to Qhull about the strictly interior point
    ``eps * 1``, which meets every facet inequality of K with at least half
    its offset to spare.
    """
    a, b = _body_halfspaces(body)
    n = body.dim
    a_full = np.vstack([a, -np.eye(n)])
    b_full = np.concatenate([b, np.zeros(n)])
    eps = 0.5 * float(np.min(b / np.abs(a).sum(axis=1)))
    verts = _halfspace_vertices(a_full, b_full, np.full(n, eps))
    if verts.shape[0] < n + 1:
        raise ValueError("orthant clip produced too few vertices")
    return _dedup_in_order(verts, 1e-10 * max(1.0, float(np.max(b))))


@dataclass(frozen=True)
class OrthantRegion:
    """A symmetric body restricted to the closed positive orthant.

    Supports membership, rejection sampling, and the coordinate moment
    ``int x_i^2 dx`` -- exactly for polytopes (clip-and-triangulate) and
    axis-aligned ellipsoids (orthant symmetry), by Monte Carlo otherwise.
    """

    body: Body
    _verts: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.body.dim

    def contains(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray | bool:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out = self.body.contains(pts, tol) & (pts.min(axis=1) >= -tol)
        return bool(out[0]) if single else out

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
        center = verts.mean(axis=0)
        try:
            hull = ConvexHull(verts)
        except QhullError as exc:
            raise ValueError(f"degenerate orthant clip: {exc}") from exc
        facets = verts[hull.simplices]  # (k, n, n)
        k, n = facets.shape[0], self.dim
        simplices = np.empty((k, n + 1, n))
        simplices[:, 0, :] = center
        simplices[:, 1:, :] = facets
        m, _ = _simplex_stack_moments(simplices)
        return float(m[i, i])


def orthant_pair(
    body: Body, partition: YaoYaoPartition, index: int
) -> tuple[OrthantRegion, OrthantRegion, LinearMap]:
    """Straighten one partition cone onto the standard orthant, with its dual.

    Composes the cone's shear, the determinant-balanced straightening about
    the (signed) base direction, and the rotation taking that direction to
    e_1.  Returns ``(X, Y, W)`` with ``X = W(K) cap R^n_+``,
    ``Y = W^{-T}(K*) cap R^n_+`` and ``<W x, e_1> = +-<x, u>``; X and Y are a
    valid input pair for ``pl_triple_check`` with coordinate 0.
    """
    u = partition.base_direction
    cone = partition.cones[index]
    shear, sheared = shear_partition(partition)[index]
    heights = u @ cone.generators
    sigma = math.copysign(1.0, heights[int(np.argmax(np.abs(heights)))])
    straighten = cone_to_orthant(sheared, sigma * u)
    rotate = orthonormal_basis(sigma * u).T
    w = LinearMap(rotate @ straighten.matrix @ shear.matrix)
    x_region = OrthantRegion(apply_map(w, body))
    y_region = OrthantRegion(apply_map(LinearMap(w.inverse_transpose), polar(body)))
    return x_region, y_region, w


def pl_triple_check(
    x_region: OrthantRegion,
    y_region: OrthantRegion,
    i: int = 0,
    pairs: int = 10**5,
    seed: int = 0,
    moment_samples: int = 10**6,
) -> DeficitReport:
    """Product-form Prekopa-Leindler verification for an orthant pair (X, Y).

    With ``f(s) = e^{2 s_i} 1_X(e^s) e^{sum s}`` and likewise g on Y, h on the
    unit-ball orthant, three checks run:

    (a) midpoint hypothesis ``h((s+t)/2) >= sqrt(f(s) g(t))`` on sampled
        log-coordinate pairs -- after the smooth factors cancel this is the
        containment ``sqrt(x*y)`` in the ball, i.e. ``<x, y> <= 1``;
    (b) the integrated inequality ``(int h)^2 - int f int g >= -tol`` via the
        substitution identity ``int f = int_X x_i^2 dx`` (moments module) and
        the closed form ``int h = 2^{-n} omega_n / (n+2)``;
    (c) coordinatewise-geometric-mean containment of sampled pairs in B_2^n.

    A hypothesis violation beyond 1e-9 raises: the inputs are then not a
    polar-restricted pair, and the deficit would be meaningless.
    """
    n = x_region.dim
    if y_region.dim != n:
        raise ValueError("X and Y dimensions differ")
    if not 0 <= i < n:
        raise ValueError("coordinate index out of range")
    f_int, f_se = x_region.coordinate_moment(i, samples=moment_samples, seed=seed + 101)
    g_int, g_se = y_region.coordinate_moment(i, samples=moment_samples, seed=seed + 202)
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
    mids = np.sqrt(xs * ys)
    geomean_margin = float(np.sqrt((mids**2).sum(axis=1)).max()) - 1.0

    # explicit midpoint identity in log coordinates, on strictly interior pairs
    interior = (xs > 0).all(axis=1) & (ys > 0).all(axis=1)
    log_residual = 0.0
    if interior.any():
        xi, yi = xs[interior], ys[interior]
        f_log = 2 * np.log(xi[:, i]) + np.log(xi).sum(axis=1)
        g_log = 2 * np.log(yi[:, i]) + np.log(yi).sum(axis=1)
        mi = np.sqrt(xi * yi)
        h_log = 2 * np.log(mi[:, i]) + np.log(mi).sum(axis=1)
        log_residual = float(np.max(np.abs(h_log - 0.5 * (f_log + g_log))))

    if f_se is None and g_se is None:
        method, tol = "exact", EXACT_TOL
    else:
        method = "mc"
        sf = f_se or 0.0
        sg = g_se or 0.0
        tol = MC_SIGMAS * math.hypot(g_int * sf, f_int * sg)
    meta = {
        "seed": seed,
        "pairs": pairs,
        "hypothesis_margin": margin,
        "geomean_margin": geomean_margin,
        "midpoint_log_residual": log_residual,
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
    mk = second_moment_matrix(body, method=method, samples=samples, seed=seed)
    mp = second_moment_matrix(polar(body), method=method, samples=samples, seed=seed + 1)
    gamma = (n + 2) * unit_ball_volume(n) ** (2.0 / n) / n
    lhs = (mk.volume * mp.volume) ** ((n + 2.0) / n)
    rhs = gamma * gamma * mk.trace * mp.trace
    trace_product = mk.trace * mp.trace
    functional = float(np.sum(mk.matrix * mp.matrix))
    identity_gap = abs(trace_product - n * functional) / max(trace_product, 1e-300)
    exact = mk.stderr is None and mp.stderr is None
    tol = EXACT_TOL * max(1.0, abs(rhs))
    if not exact:
        se_tr_k = float(np.sqrt(np.sum(np.diag(mk.stderr) ** 2))) if mk.stderr is not None else 0.0
        se_tr_p = float(np.sqrt(np.sum(np.diag(mp.stderr) ** 2))) if mp.stderr is not None else 0.0
        tol = MC_SIGMAS * gamma * gamma * math.hypot(mp.trace * se_tr_k, mk.trace * se_tr_p)
    meta = {
        "seed": None if exact else seed,
        "identity_rel_gap": identity_gap,
        "trace_product": trace_product,
        "gamma": gamma,
    }
    return _report("chain", lhs, rhs, tol, "exact" if exact else "mc", meta)
