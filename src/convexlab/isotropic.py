"""Isotropic positions of symmetric bodies.

A body L is isotropic (normalization-free sense) when its second-moment
matrix is a scalar multiple of the identity, i.e. the directional moment
``u -> integral of <x, u>^2`` is the same in every unit direction.  The
isotropizing map is the inverse symmetric square root of the moment matrix,
optionally rescaled so the image has ball volume.  ``target="polar"`` returns
the map S to apply to K itself such that (S K)* is isotropic, using
``(S K)* = S^{-T} K*``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Body, Ellipsoid, LinearMap, apply_map, polar, unit_ball_volume
from .moments import MomentMatrix, second_moment_matrix, volume

# Eigenvalue ratio beyond which the moment matrix is treated as numerically rank-deficient.
EIGEN_RATIO_CAP = 1e12


@dataclass(frozen=True)
class IsotropicCertificate:
    """Post-hoc evidence that a body is in isotropic position."""

    map: LinearMap
    off_diag_rel: float
    diag_spread_rel: float
    volume_after: float

    def to_json_dict(self) -> dict:
        return {
            "map": self.map.matrix.tolist(),
            "off_diag_rel": self.off_diag_rel,
            "diag_spread_rel": self.diag_spread_rel,
            "volume_after": self.volume_after,
        }


def moment_anisotropy(mm: MomentMatrix) -> tuple[float, float]:
    """(max off-diagonal, diagonal spread), both relative to M_11."""
    m = mm.matrix
    scale = float(m[0, 0])
    off = m - np.diag(np.diag(m))
    d = np.diag(m)
    return float(np.max(np.abs(off)) / scale), float((d.max() - d.min()) / scale)


def _symmetric_inv_sqrt(m: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(m)
    if w[0] <= 0 or w[-1] / w[0] > EIGEN_RATIO_CAP:
        raise ValueError("numerically degenerate body: moment matrix eigenvalue ratio too large")
    return (u / np.sqrt(w)) @ u.T


def isotropize(
    body: Body,
    normalize: str = "none",
    target: str = "self",
    method: str = "auto",
    samples: int = 10**6,
    seed: int = 0,
) -> tuple[LinearMap, Body, IsotropicCertificate]:
    """Map a body (or its polar) to isotropic position.

    Returns ``(map, image, certificate)`` where ``image = map(body)``.  With
    ``target="self"`` the image itself is isotropic; with ``target="polar"``
    the polar of the image is.  ``normalize="volume"`` additionally scales the
    isotropic body to the volume of the unit ball; ``normalize="none"`` leaves
    scale alone (the moment matrix is then just proportional to the identity).
    """
    if normalize not in ("none", "volume"):
        raise ValueError(f"unknown normalize mode {normalize!r}")
    if target not in ("self", "polar"):
        raise ValueError(f"unknown target {target!r}")
    n = body.dim
    tgt = polar(body) if target == "polar" else body
    mm = second_moment_matrix(tgt, method=method, samples=samples, seed=seed)
    t = _symmetric_inv_sqrt(mm.matrix)
    if normalize == "volume":
        c = (unit_ball_volume(n) / (mm.volume * np.linalg.det(t))) ** (1.0 / n)
        t = c * t
    if target == "self":
        s = t
    else:
        # want (S K)* = T K*; polarity swaps to the inverse transpose, and T is symmetric
        s = np.linalg.inv(t)
    smap = LinearMap(s)
    image = apply_map(smap, body)
    cert_body = image if target == "self" else polar(image)
    mm_after = second_moment_matrix(cert_body, method=method, samples=samples, seed=seed + 1)
    off, spread = moment_anisotropy(mm_after)
    cert = IsotropicCertificate(
        map=smap,
        off_diag_rel=off,
        diag_spread_rel=spread,
        volume_after=_volume_of(cert_body, mm_after),
    )
    return smap, image, cert


def _volume_of(body: Body, mm: MomentMatrix) -> float:
    try:
        return volume(body)
    except TypeError:
        return mm.volume


def kls_sandwich_check(
    body: Body,
    iso_tol: float = 1e-6,
    vol_tol: float = 1e-6,
) -> tuple[float, float]:
    """Inradius/circumradius of an isotropic ball-volume body, with bounds.

    Preconditions: the body is isotropic within ``iso_tol`` (recomputed here)
    and has the volume of the unit ball within ``vol_tol`` relative.  Returns
    ``(r_in, r_out)`` and raises if the sandwich ``1/n <= r_in`` and
    ``r_out <= n`` fails -- for genuinely isotropic input that would signal an
    implementation bug, not a property of the body.
    """
    n = body.dim
    wn = unit_ball_volume(n)
    vol = volume(body)
    if abs(vol - wn) > vol_tol * wn:
        raise ValueError(f"body volume {vol:.6g} is not omega_n within {vol_tol:g} relative")
    off, spread = moment_anisotropy(second_moment_matrix(body))
    if max(off, spread) > iso_tol:
        raise ValueError(
            f"body is not isotropic within {iso_tol:g} (off={off:.2e}, spread={spread:.2e})"
        )
    if isinstance(body, Ellipsoid):
        w = np.linalg.eigvalsh(body.shape)
        r_in, r_out = 1.0 / math.sqrt(w[-1]), 1.0 / math.sqrt(w[0])
    else:
        pol = polar(body)
        pv = pol.to_v() if hasattr(pol, "to_v") else pol
        kv = body.to_v() if hasattr(body, "to_v") else body
        r_in = 1.0 / float(np.max(np.linalg.norm(pv.vertices, axis=1)))
        r_out = float(np.max(np.linalg.norm(kv.vertices, axis=1)))
    slack = 1e-9
    if r_in < 1.0 / n - slack or r_out > n + slack:
        raise RuntimeError(
            f"isotropic sandwich violated: r_in={r_in:.6g}, r_out={r_out:.6g}, n={n}"
        )
    return r_in, r_out
