"""The benchmark's tracer still installs on the package.

``perfbench/tracing.py`` wraps convexlab functions and methods by name and
refuses to install when one is missing, so a rename that would break traced
benchmark runs fails here.  The tracer is imported from its own directory,
unchanged.
"""

import importlib
import os

import numpy as np

import convexlab.cli  # noqa: F401  (imports every module the tracer wraps)
from convexlab import geometry, moments
from convexlab.stability import kt_family

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    original = moments.mc_volume
    contains = geometry.SymmetricVPolytope.contains
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert moments.mc_volume is not original
        moments.mc_volume(geometry.cube(2), 1_000, 0)
    finally:
        tracer.uninstall()
    assert moments.mc_volume is original
    assert geometry.SymmetricVPolytope.contains is contains
    assert tracer.calls["moments.mc_volume"] == 1
    assert tracer.counts["geometry.contains.vpoly.2d.points"] == 1_000
    assert np.isfinite(tracer.total["moments.mc_volume"])


def test_tracer_records_vertex_enumeration_of_a_polar(monkeypatch):
    """The polar of a V-polytope goes through ``vertex_enumeration``, the
    layer the exact-geometry workload declares; a run that records no call
    to a declared layer fails."""
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    body = geometry.random_symmetric_polytope(4, 16, seed=0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        geometry.polar(body)
    finally:
        tracer.uninstall()
    assert tracer.calls["geometry.polar"] == 1
    assert tracer.calls["geometry.vertex_enumeration"] >= 1


def test_tracer_records_h_polytope_membership_by_layer(monkeypatch):
    """A 2D H-polytope tests membership in its vertex form, so the 2D K_t
    records ``geometry.contains.vpoly_angular.2d``; a 3D H-polytope tests its
    polar's vertices itself and records under ``geometry.contains.hpoly.3d``
    only.  kt-stability and moment-oracle declare those layers, and a traced
    run fails when a declared layer records no call."""
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    kt = kt_family(2, 0.05)
    hp = geometry.ball_approx(3, 40, seed=2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        kt.contains(np.zeros((1_000, 2)))
        hp.contains(np.zeros((500, 3)))
    finally:
        tracer.uninstall()
    assert tracer.counts["geometry.contains.vpoly_angular.2d.points"] == 1_000
    assert tracer.counts["geometry.contains.hpoly.3d.points"] == 500
    assert "geometry.contains.vpoly.3d" not in tracer.calls
