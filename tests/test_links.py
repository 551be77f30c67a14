import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpranking.links import get_link, logistic_link


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
