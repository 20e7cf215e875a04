"""Package layout: what importing a module costs, and how value classes hold arrays."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from llab import core
from llab.classify import PrCurve
from llab.core import Trace
from llab.segment import MeanCenteredProfile
from llab.stats import Empirical, FitMeta, GpdTail
from llab.synth import GroundTruth

SRC = Path(core.__file__).resolve().parents[1]


def test_importing_core_loads_only_what_it_uses():
    code = ("import sys, llab.core; print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('llab', 'scipy', 'socket')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == ["llab", "llab._num", "llab.core", "llab.errors"]


META = FitMeta(n=3, loglik=None)
VALUE_ARRAYS = {
    "Trace": (lambda a: Trace(np.arange(3, dtype=np.uint64), np.arange(3), a, a, a,
                              np.zeros(3, bool), 1), "ul", np.int64),
    "MeanCenteredProfile": (lambda a: MeanCenteredProfile(a, 1), "values", np.float64),
    "GroundTruth": (lambda a: GroundTruth(0, a, np.zeros(3), ("Good",) * 3),
                    "period_means_ms", np.float64),
    "Empirical": (lambda a: Empirical(a, META), "samples", np.float64),
    "GpdTail": (lambda a: GpdTail(0.0, 1.0, 0.1, 10, 13, a, META), "body", np.float64),
    "PrCurve": (lambda a: PrCurve(a, np.ones(3), np.zeros(3)), "thresholds", np.float64),
}


@pytest.mark.parametrize("make,attr,dtype", VALUE_ARRAYS.values(), ids=VALUE_ARRAYS)
def test_value_class_leaves_the_callers_array_writable(make, attr, dtype):
    a = np.zeros(3, dtype)
    held = getattr(make(a), attr)
    a[0] = 1  # the caller's array stays the caller's
    assert not held.flags.writeable
    assert held[0] == 0
