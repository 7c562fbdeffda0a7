"""Yao-Yao equipartitions of even measures into 2^n simplicial cones.

Given an even measure mu on R^n (here: a symmetric sample cloud with
even weights) and a base direction u, the Yao-Yao construction produces
2^n simplicial cones with a common apex, each carrying exactly 2^{-n} of
the total mass.  The construction is recursive: split by the hyperplane
through the apex orthogonal to u, pick an axis vector v = u + sum a_j f_j,
project both halves onto the hyperplane along v, and equipartition the two
projected measures with a *common* recursive apex; the multipliers a_j are
the free parameters that make the two recursive apexes coincide.

For an even measure the apex is the origin and the lower half-tree is the
point reflection of the upper one, so only the upper half is ever solved.
The key computational fact is triangular dependence: component k of the
recursive apex depends only on the multipliers a_1..a_k, and monotonically
on a_k, so the vector equation splits into a sequence of scalar
root-finding problems on weighted medians.

Everything here operates on discrete weighted samples; masses reported by
the partition are exact masses of the sample measure in the constructed
cones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Body,
    LinearMap,
    SimplicialCone,
    orthonormal_basis,
    random_directions,
    write_json,
)
from .moments import rejection_sample

MIN_SAMPLES = 10_000
_AXIS_TOL = 1e-9
_MASS_CHUNK = 2_000_000


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class MeasureSamples:
    """Weighted sample cloud of an even measure.

    Points are stored as interleaved antipodal pairs, points[2i+1] ==
    -points[2i] with equal weights, which makes the evenness of the measure
    exact at sample level rather than merely statistical.
    """

    points: np.ndarray
    weights: np.ndarray
    direction: np.ndarray
    density: str
    seed: int | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or len(pts) != len(w):
            raise ValueError("points must be (N, n) with matching weights")
        if len(pts) % 2 or len(pts) == 0:
            raise ValueError("need an even, positive number of samples")
        if not np.array_equal(pts[1::2], -pts[0::2]):
            raise ValueError("samples are not interleaved antipodal pairs")
        if not np.array_equal(w[1::2], w[0::2]):
            raise ValueError("pair weights differ")
        if np.any(w < 0) or not np.isfinite(w).all():
            raise ValueError("weights must be finite and nonnegative")
        if w.sum() <= 0:
            raise ValueError("total weight must be positive")
        u = np.asarray(self.direction, dtype=float)
        if u.shape != (pts.shape[1],) or not math.isclose(
            float(np.linalg.norm(u)), 1.0, rel_tol=0, abs_tol=1e-9
        ):
            raise ValueError("direction must be a unit vector of matching dimension")
        if self.density == "moment2":
            ref = (pts @ u) ** 2
            if np.max(np.abs(w - ref)) > 1e-9 * max(float(ref.max()), 1e-300):
                raise ValueError("moment2 weights must equal <x, u>^2")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "direction", u)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def weighted_centroid(self) -> np.ndarray:
        return self.weights @ self.points / self.total


def sample_measure(
    body: Body,
    direction: np.ndarray,
    n_samples: int = 200_000,
    seed: int = 0,
    density: str = "moment2",
) -> MeasureSamples:
    """Draw an even weighted sample cloud from a symmetric body.

    ``density="moment2"`` weights each point x by <x, u>^2 (the measure
    equipartitioned in the cone decomposition of the volume product);
    ``density="uniform"`` gives unit weights.  Points are drawn by rejection
    from the bounding box; half the requested count is drawn and the
    antipodes are appended, so the cloud is exactly even.
    """
    if density not in ("moment2", "uniform"):
        raise ValueError(f"unknown density {density!r}")
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    if n_samples % 2:
        raise ValueError("n_samples must be even")
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    n = body.dim
    lo, hi = body.bounding_box()
    half = rejection_sample(body.contains, lo, hi, n_samples // 2, seed)
    pts = np.empty((n_samples, n))
    pts[0::2] = half
    pts[1::2] = -half
    if density == "moment2":
        w = (pts @ u) ** 2
    else:
        w = np.ones(n_samples)
    return MeasureSamples(points=pts, weights=w, direction=u, density=density, seed=seed)


# ---------------------------------------------------------------------------
# weighted medians and monotone scalar solves


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """Interpolated weighted median (piecewise-linear CDF at level 1/2).

    The interpolated form is continuous in the values, which the axis
    root-finds rely on, and odd under negation of the values, which keeps
    the reflection identity for even measures exact.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    c = np.cumsum(w) - 0.5 * w
    return float(np.interp(0.5 * w.sum(), c, v))


def _solve_decreasing(phi, x0: float, step: float, tol: float, max_iter: int = 200) -> float:
    """Root of a continuous, piecewise-linear, strictly decreasing function.

    Brackets by doubling steps from ``x0`` and polishes with the Illinois
    variant of regula falsi until ``|phi| <= tol``; running out of iterations
    (or stalling on a collapsed bracket with a large residual) is an error
    that reports the residual rather than a silent best guess.
    """
    fx = phi(x0)
    if abs(fx) <= tol:
        return x0
    step = abs(step) or 1.0
    if fx > 0:
        a, fa = x0, fx
        b, fb = x0 + step, phi(x0 + step)
        while fb > 0:
            if fb > fa * (1 + 1e-12) or step > 1e18:
                raise RuntimeError("equipartition axis solve failed to bracket")
            a, fa = b, fb
            step *= 2
            b = a + step
            fb = phi(b)
    else:
        b, fb = x0, fx
        a, fa = x0 - step, phi(x0 - step)
        while fa < 0:
            if fa < fb * (1 + 1e-12) or step > 1e18:
                raise RuntimeError("equipartition axis solve failed to bracket")
            b, fb = a, fa
            step *= 2
            a = b - step
            fa = phi(a)
    side = 0
    residual = min(abs(fa), abs(fb))
    for _ in range(max_iter):
        if fa == fb or (b - a) <= 1e-14 * (1.0 + abs(a) + abs(b)):
            break
        x = (a * fb - b * fa) / (fb - fa)
        if not a < x < b:
            x = 0.5 * (a + b)
        fx = phi(x)
        if abs(fx) <= tol:
            return x
        residual = abs(fx)
        if fx > 0:
            a, fa = x, fx
            if side == 1:
                fb *= 0.5
            side = 1
        else:
            b, fb = x, fx
            if side == -1:
                fa *= 0.5
            side = -1
    raise RuntimeError(
        f"equipartition axis solve did not converge: residual {residual:.3e} "
        f"exceeds tolerance {tol:.3e} on bracket [{a:.6g}, {b:.6g}]"
    )


# ---------------------------------------------------------------------------
# the recursive construction


class _Node:
    """One level of the partition tree, in local sheared coordinates."""

    __slots__ = ("split", "mult", "upper", "lower")

    def __init__(self, split, mult, upper, lower):
        self.split = split
        self.mult = mult
        self.upper = upper
        self.lower = lower


def _project(pts: np.ndarray, split: float, mult: np.ndarray, k: int) -> np.ndarray:
    """Project onto {x_0 = split} along (1, mult); keep local coords 1..k."""
    return pts[:, 1 : k + 1] - (pts[:, :1] - split) * mult[:k]


def _rms(values: np.ndarray, weights: np.ndarray) -> float:
    t = weights.sum()
    if t <= 0:
        return 0.0
    return math.sqrt(float(weights @ (values * values)) / t)


def _center_component(pts: np.ndarray, w: np.ndarray, j: int, tol_rel: float) -> float:
    """Component j of the Yao-Yao apex of a (generally uneven) sample measure."""
    if j == 0:
        return _weighted_median(pts[:, 0], w)
    s = _weighted_median(pts[:, 0], w)
    up = pts[:, 0] >= s
    mult = _solve_multipliers(pts, w, s, up, j, tol_rel)
    qu = _project(pts[up], s, mult, j)
    ql = _project(pts[~up], s, mult, j)
    return 0.5 * (
        _center_component(qu, w[up], j - 1, tol_rel)
        + _center_component(ql, w[~up], j - 1, tol_rel)
    )


def _solve_multipliers(
    pts: np.ndarray,
    w: np.ndarray,
    s: float,
    up: np.ndarray,
    kmax: int,
    tol_rel: float,
) -> np.ndarray:
    """Axis multipliers a_1..a_kmax matching the two recursive apexes.

    Sequential in k: component k-1 of the projected apexes depends only on
    a_1..a_k and is strictly monotone in a_k (increasing a_k lowers every
    upper-half point and raises every lower-half point in coordinate k).
    """
    lo = ~up
    if not up.any() or not lo.any():
        raise RuntimeError("degenerate measure: median split left one side empty")
    wu, wl = w[up], w[lo]
    h_up = max(_rms(pts[up][:, 0] - s, wu), 1e-300)
    mult = np.zeros(kmax)
    for k in range(1, kmax + 1):
        scale = max(_rms(pts[:, k], w), 1e-300)

        def phi(t, _k=k):
            mult[_k - 1] = t
            cu = _center_component(_project(pts[up], s, mult, _k), wu, _k - 1, tol_rel)
            cl = _center_component(_project(pts[lo], s, mult, _k), wl, _k - 1, tol_rel)
            return cu - cl

        mult[k - 1] = _solve_decreasing(phi, mult[k - 1], scale / h_up, tol_rel * scale)
    return mult


def _build_tree(pts: np.ndarray, w: np.ndarray, tol_rel: float) -> _Node:
    m = pts.shape[1]
    s = _weighted_median(pts[:, 0], w)
    if m == 1:
        return _Node(s, None, None, None)
    up = pts[:, 0] >= s
    mult = _solve_multipliers(pts, w, s, up, m - 1, tol_rel)
    upper = _build_tree(_project(pts[up], s, mult, m - 1), w[up], tol_rel)
    lower = _build_tree(_project(pts[~up], s, mult, m - 1), w[~up], tol_rel)
    return _Node(s, mult, upper, lower)


def _reflect(node: _Node) -> _Node:
    """Tree of the point-reflected measure: same multipliers, mirrored splits."""
    if node.mult is None:
        return _Node(-node.split, None, None, None)
    return _Node(-node.split, node.mult, _reflect(node.lower), _reflect(node.upper))


def _collect_cones(node: _Node, m: int) -> list[np.ndarray]:
    """Generator matrices (columns) in local coordinates, upper block first.

    The ordering matches the index convention of cone mass assignment: the
    lower branch at a level of dimension m contributes an offset 2^{m-1}.
    """
    if node.mult is None:
        return [np.array([[1.0]]), np.array([[-1.0]])]
    v = np.concatenate([[1.0], node.mult])
    cones = []
    for sign, child in ((1.0, node.upper), (-1.0, node.lower)):
        for sub in _collect_cones(child, m - 1):
            g = np.zeros((m, m))
            g[1:, : m - 1] = sub
            g[:, m - 1] = sign * v
            cones.append(g)
    return cones


# ---------------------------------------------------------------------------
# public partition object


@dataclass(frozen=True)
class YaoYaoPartition:
    """2^n-cone equipartition of an even sample measure.

    ``masses`` are the exact (raw) cone masses of the sample measure and
    ``total`` their sum; ``axis`` is the top-level axis v (unit length,
    ⟨u, v⟩ > 0) and ``center`` the common apex -- always the origin for the
    even measures handled here.
    """

    center: np.ndarray
    base_direction: np.ndarray
    axis: np.ndarray
    cones: tuple[SimplicialCone, ...]
    masses: np.ndarray
    total: float
    mass_tol: float
    samples_used: int = 0

    def __post_init__(self):
        n = len(self.center)
        if len(self.cones) != 2**n:
            raise ValueError(f"expected {2**n} cones, got {len(self.cones)}")
        if len(self.masses) != 2**n:
            raise ValueError("one mass per cone required")
        if not self.total > 0:
            raise ValueError("total mass must be positive")
        if float(self.base_direction @ self.axis) <= 0:
            raise ValueError("axis must make a positive angle with the base direction")

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def mass_fractions(self) -> np.ndarray:
        return np.asarray(self.masses, dtype=float) / self.total

    def to_json_dict(self) -> dict:
        return {
            "u": self.base_direction.tolist(),
            "v": self.axis.tolist(),
            "cones": [{"generators": c.generators.tolist()} for c in self.cones],
            "masses": np.asarray(self.masses).tolist(),
            "total": self.total,
            "mass_tol": self.mass_tol,
        }


def save_partition(path, partition: YaoYaoPartition, extra: dict | None = None) -> None:
    write_json(path, {**partition.to_json_dict(), **(extra or {})})


def load_partition(path) -> YaoYaoPartition:
    with open(path) as fh:
        data = json.load(fh)
    for key in ("u", "v", "cones", "masses", "total", "mass_tol"):
        if key not in data:
            raise ValueError(f"not a partition file: missing key {key!r}")
    u = np.asarray(data["u"], dtype=float)
    return YaoYaoPartition(
        center=np.zeros(len(u)),
        base_direction=u,
        axis=np.asarray(data["v"], dtype=float),
        cones=tuple(
            SimplicialCone(np.asarray(c["generators"], dtype=float)) for c in data["cones"]
        ),
        masses=np.asarray(data["masses"], dtype=float),
        total=float(data["total"]),
        mass_tol=float(data["mass_tol"]),
        samples_used=int(data.get("samples", 0)),
    )


def assign_cones(partition: YaoYaoPartition, points: np.ndarray) -> np.ndarray:
    """Index of the cone containing each point (ties go to the deepest cone).

    Membership is decided by the cone coordinates; every point is assigned
    to the cone whose smallest generator coordinate is largest, so boundary
    points are counted exactly once.
    """
    return _assign_to_cones(partition.cones, points)


def _assign_to_cones(cones, points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    best = np.full(len(pts), -np.inf)
    idx = np.zeros(len(pts), dtype=np.intp)
    for i, cone in enumerate(cones):
        depth = cone.coordinates(pts).min(axis=1)
        better = depth > best
        best[better] = depth[better]
        idx[better] = i
    return idx


def yao_yao_equipartition(
    samples: MeasureSamples,
    u: np.ndarray | None = None,
    mass_tol: float = 5e-3,
) -> YaoYaoPartition:
    """Equipartition an even sample measure into 2^n cones about direction u.

    ``u`` defaults to the direction the measure was sampled with.  The axis
    multipliers are solved on the upper half only and reflected; the
    resulting cone masses are checked against the sample measure and a
    RuntimeError is raised if any deviates from 2^{-n} by more than
    ``mass_tol`` relative.  A sampled direction-cover self-check guards
    against a malformed cone complex.
    """
    if not 0 < mass_tol < 1:
        raise ValueError("mass_tol must be in (0, 1)")
    n = samples.dim
    if n < 2:
        raise ValueError("partition needs dimension >= 2")
    if u is None:
        u = samples.direction
    else:
        u = np.asarray(u, dtype=float)
        if u.shape != (n,):
            raise ValueError("direction dimension mismatch")
        u = u / np.linalg.norm(u)
    basis = orthonormal_basis(u)
    z = samples.points @ basis
    w = samples.weights
    up = z[:, 0] > 0

    tol_rel = min(mass_tol / 4, 1e-4)
    zu = z[up]
    wu = w[up]
    if wu.sum() <= 0:
        raise ValueError("degenerate measure: no weight off the base hyperplane")

    # Top level of an even measure: split plane through the origin, apex at
    # the origin, so the matching conditions reduce to "apex component = 0"
    # for the projected upper half.
    mult = np.zeros(n - 1)
    mult[0] = _weighted_median(zu[:, 1] / zu[:, 0], wu)
    for k in range(2, n):
        scale = max(_rms(z[:, k], w), 1e-300)

        def phi(t, _k=k):
            mult[_k - 1] = t
            return _center_component(_project(zu, 0.0, mult, _k), wu, _k - 1, tol_rel)

        mult[k - 1] = _solve_decreasing(
            phi, 0.0, scale / max(_rms(zu[:, 0], wu), 1e-300), tol_rel * scale
        )

    upper = _build_tree(_project(zu, 0.0, mult, n - 1), wu, tol_rel)
    root = _Node(0.0, mult, upper, _reflect(upper))

    gens_local = _collect_cones(root, n)
    cones = tuple(SimplicialCone(basis @ g) for g in gens_local)
    axis = basis @ np.concatenate([[1.0], mult])
    axis = axis / np.linalg.norm(axis)

    masses = np.zeros(2**n)
    for start in range(0, len(z), _MASS_CHUNK):
        idx = _assign_to_cones(cones, samples.points[start : start + _MASS_CHUNK])
        masses += np.bincount(idx, weights=w[start : start + _MASS_CHUNK], minlength=2**n)
    total = float(masses.sum())

    target = 2.0**-n
    worst = float(np.max(np.abs(masses / total - target)))
    if worst > mass_tol * target:
        raise RuntimeError(
            f"not an equipartition: worst cone mass deviation {worst:.3e} "
            f"exceeds {mass_tol:g} * 2^-{n}"
        )
    _check_cover(cones, 4096, 12345, "cone complex does not cover the sphere")
    return YaoYaoPartition(
        center=np.zeros(n),
        base_direction=u,
        axis=axis,
        cones=cones,
        masses=masses,
        total=total,
        mass_tol=mass_tol,
        samples_used=len(samples.points),
    )


def _check_cover(cones: tuple[SimplicialCone, ...], count: int, seed: int, message: str) -> None:
    """Raise ``RuntimeError(message)`` unless every one of ``count`` seeded
    random directions lies in some cone (coordinates >= -1e-9)."""
    dirs = random_directions(cones[0].dim, count, np.random.default_rng(seed))
    covered = np.zeros(len(dirs), dtype=bool)
    for cone in cones:
        covered |= (cone.coordinates(dirs) >= -1e-9).all(axis=1)
    if not covered.all():
        raise RuntimeError(message)


# ---------------------------------------------------------------------------
# maps used by the cone-restricted inequality


def shear_to_axis(u: np.ndarray, v: np.ndarray) -> LinearMap:
    """Volume-preserving shear fixing u^perp pointwise and sending v to <v,u>u.

    T = I - (v - <v,u> u) u^T / <v,u> has unit determinant, preserves the
    height <x, u> of every point, and acts as the identity on u^perp.
    Raises if v is (numerically) parallel to the base hyperplane.
    """
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    v = np.asarray(v, dtype=float)
    c = float(u @ v)
    if c <= _AXIS_TOL * np.linalg.norm(v):
        raise ValueError("axis is not transversal to the base hyperplane")
    n = len(u)
    return LinearMap(np.eye(n) - np.outer(v - c * u, u) / c)


def cone_to_orthant(cone: SimplicialCone, u: np.ndarray) -> LinearMap:
    """Unimodular map straightening a sheared partition cone about u.

    Expects a cone of the shape produced by ``shear_to_axis``: one generator
    equal to u and the remaining n-1 generators in u-perp.  The returned map
    S fixes u, sends the transverse generators to an orthonormal frame of
    u-perp scaled by a common factor balancing the determinant to |det S| = 1,
    and preserves heights: <S x, u> = <x, u>.  The image of the cone is the
    first orthant of the rotated coordinates (u first).  The inverse
    transpose of S plays the same role for the dual cone and the polar body.
    """
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    n = cone.dim
    heights = u @ cone.generators
    j = int(np.argmax(heights))
    if heights[j] < 1.0 - _AXIS_TOL:
        raise ValueError("u is not a generator of the cone")
    trans = np.delete(cone.generators, j, axis=1)
    if np.max(np.abs(u @ trans)) > _AXIS_TOL:
        raise ValueError("transverse generators are not in the base hyperplane")
    full = np.column_stack([u, trans])
    delta = abs(np.linalg.det(full))
    if delta < 1e-12:
        raise ValueError("cone generators are numerically dependent")
    frame = orthonormal_basis(u)
    scale = np.concatenate([[1.0], np.full(n - 1, delta ** (1.0 / (n - 1)))])
    return LinearMap((frame * scale) @ np.linalg.inv(full))


def shear_partition(partition: YaoYaoPartition) -> list[tuple[LinearMap, SimplicialCone]]:
    """Per-cone shears straightening the axis generator onto +-direction.

    Returns one (shear, sheared cone) pair per cone, in partition order.
    Upper and lower cones that share an axis receive the same shear matrix.
    """
    u = partition.base_direction
    out = []
    for cone in partition.cones:
        heights = u @ cone.generators
        j = int(np.argmax(np.abs(heights)))
        sigma = math.copysign(1.0, heights[j])
        shear = shear_to_axis(sigma * u, cone.generators[:, j])
        out.append((shear, SimplicialCone(shear.matrix @ cone.generators)))
    return out


def dual_partition(partition: YaoYaoPartition) -> tuple[SimplicialCone, ...]:
    """Dual-basis cones of the partition, index-paired with the primal cones.

    For the Yao-Yao complex the duals again tile space; this is verified on
    a large sampled set of directions and a RuntimeError is raised on
    failure rather than returning a non-covering family.
    """
    from .geometry import dual_cone

    duals = tuple(dual_cone(c) for c in partition.cones)
    _check_cover(duals, 100_000, 54321, "dual cone family does not cover the sphere")
    return duals
