import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpranking.links import get_link, logistic_link

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def link():
    return logistic_link()


def test_logistic_at_zero(link):
    assert link.eval(0.0) == pytest.approx(0.5)
    assert link.deriv(0.0) == pytest.approx(0.25)


def test_certified_constants(link):
    assert link.kappa1 == 1.0
    assert link.kappa2 == 57.0
    # the binding constraint for kappa2: min curvature over |x| <= 4
    edge_val = float(link.neg_log_second(4.0))
    assert edge_val == pytest.approx(0.017663, abs=1e-6)
    assert edge_val > 1.0 / 57.0
    assert float(link.neg_log_second(0.0)) == pytest.approx(0.25)
    assert 0.25 < 57.0


def test_validate_conditions_passes_for_logistic(link):
    # the four regularity conditions the constants certify, on a symmetric grid
    x = np.linspace(-10, 10, 10001)
    f, f_neg = link.eval(x), link.eval(-x)
    assert np.all(np.diff(f) > 0)
    assert np.all(np.abs(f + f_neg - 1.0) <= 1e-12)
    # F(1-F) written as F(x)F(-x) avoids cancellation in 1-F at the edges
    assert np.all(link.deriv(x) / (f * f_neg) <= link.kappa1 * (1.0 + 1e-9))
    curv = link.neg_log_second(x)
    inner = np.abs(x) <= 4.0
    assert np.all((curv > 0) & (curv < link.kappa2))
    assert np.all(curv[inner] > 1.0 / link.kappa2)


def test_ratio_identity_on_grid(link):
    # F' = F(1-F) identically, so the score ratio is 1 everywhere
    x = np.linspace(-10, 10, 2001)
    ratio = link.deriv(x) / (link.eval(x) * link.eval(-x))
    assert np.allclose(ratio, 1.0, atol=1e-10)


def test_neg_log_second_matches_finite_difference(link):
    # difference the first derivative of -log F, which is F(x) - 1 for the
    # logistic; a direct second difference of log F loses too many digits
    x = np.linspace(-8, 8, 101)
    h = 1e-5
    first = lambda z: link.eval(z) - 1.0
    fd = (first(x + h) - first(x - h)) / (2 * h)
    assert np.allclose(link.neg_log_second(x), fd, rtol=1e-4)


def test_log_eval_stable_at_large_negative(link):
    # log F(-40) ~ -40; naive log(eval) would underflow to -inf far later
    val = float(link.log_eval(-40.0))
    assert val == pytest.approx(-40.0, abs=1e-6)
    assert np.isfinite(link.log_eval(-700.0))


@given(st.floats(-30, 30))
def test_symmetry_property(x):
    link = logistic_link()
    assert float(link.eval(x)) + float(link.eval(-x)) == pytest.approx(1.0, abs=1e-12)


def test_get_link(link):
    assert get_link("logistic").name == "logistic"
    with pytest.raises(ValueError, match="unknown link"):
        get_link("probit")


def test_eval_within_4_ulp_of_libm_formula(link):
    x = np.linspace(-30, 30, 60001)
    ref = [1.0 / (1.0 + math.exp(-v)) for v in x]
    for v, got, want in zip(x, link.eval(x), ref):
        assert abs(got - want) <= 4 * math.ulp(want), v


def test_eval_saturates_exactly_without_warning(link):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(link.eval(np.array([-800.0, 800.0]))) == [0.0, 1.0]
        assert float(link.eval(-800.0)) == 0.0


def test_log_eval_within_1_ulp_of_log1p_form(link):
    x = np.linspace(-30, 30, 60001)
    ref = [-math.log1p(math.exp(-v)) if v >= 0 else v - math.log1p(math.exp(v))
           for v in x]
    for v, got, want in zip(x, link.log_eval(x), ref):
        assert abs(got - want) <= math.ulp(want), v


def test_package_runs_without_scipy():
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "import dpranking\n"
        "from dpranking.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, "estimate", "--data",
         str(ROOT / "data" / "cems_synthetic.csv"), "--mode", "individual",
         "--epsilon", "1", "--seed", "0"],
        env=env, cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["theta"]) == 6
