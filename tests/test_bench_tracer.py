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
