import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as ss
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from betagraph import special
from oracles import log_beta

EULER_MASCHERONI = 0.5772156649015329


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


class TestSoftplus:
    def test_at_zero(self):
        assert special.softplus(0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_large_positive_asymptote(self):
        assert abs(special.softplus(50.0) - 50.0) < 1e-12

    def test_large_negative_positive_and_tiny(self):
        v = special.softplus(-50.0)
        assert 0 < v < 1e-20

    def test_no_overflow_at_extremes(self):
        assert np.isfinite(special.softplus(1e4))
        assert special.softplus(-1e4) >= 0.0

    @given(st.floats(min_value=-700, max_value=700))
    def test_positive_everywhere(self, x):
        assert special.softplus(x) > 0

    @given(st.floats(min_value=-100, max_value=100),
           st.floats(min_value=1e-6, max_value=10))
    def test_monotone(self, x, dx):
        assert special.softplus(x + dx) >= special.softplus(x)

    def test_elementwise_and_dtype(self):
        x = np.array([[-2.0, 0.0], [3.0, 50.0]], dtype=np.float32)
        out = special.softplus(x)
        assert out.dtype == np.float32
        assert out.shape == x.shape


class TestDigamma:
    def test_euler_mascheroni(self):
        assert special.digamma(1.0) == pytest.approx(-EULER_MASCHERONI, abs=1e-10)

    def test_at_two(self):
        assert special.digamma(2.0) == pytest.approx(1 - EULER_MASCHERONI, abs=1e-10)

    def test_at_four_via_recurrence(self):
        expected = special.digamma(2.0) + 1 / 2 + 1 / 3
        assert special.digamma(4.0) == pytest.approx(expected, abs=1e-12)
        assert special.digamma(4.0) == pytest.approx(1.2561176684, abs=1e-9)

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.7, 100.0])
    def test_recurrence_residual(self, x):
        lhs = special.digamma(x + 1) - special.digamma(x)
        assert abs(lhs - 1 / x) < 1e-10

    def test_wide_range_against_scipy(self):
        xs = np.geomspace(1e-3, 1e6, 500)
        assert rel_err(special.digamma(xs), ss.digamma(xs)).max() < 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            special.digamma(0.0)
        with pytest.raises(ValueError):
            special.digamma(-1.5)


class TestTrigamma:
    def test_recurrence(self):
        for x in (0.3, 1.0, 7.2, 50.0):
            lhs = special.trigamma(x) - special.trigamma(x + 1)
            assert abs(lhs - 1 / x ** 2) < 1e-10

    def test_against_scipy(self):
        xs = np.geomspace(1e-3, 1e6, 500)
        assert rel_err(special.trigamma(xs), ss.polygamma(1, xs)).max() < 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            special.trigamma(-0.1)


class TestLogBeta:
    def test_ones(self):
        assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_two(self):
        assert log_beta(2.0, 2.0) == pytest.approx(
            math.log(1 / 6), abs=1e-10)

    def test_half_half(self):
        assert log_beta(0.5, 0.5) == pytest.approx(
            math.log(math.pi), abs=1e-10)

    def test_against_scipy(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.05, 50, 300)
        b = rng.uniform(0.05, 50, 300)
        assert rel_err(log_beta(a, b), ss.betaln(a, b)).max() < 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)


class TestLgamma:
    def test_against_scipy_wide(self):
        xs = np.geomspace(1e-3, 1e6, 500)
        assert rel_err(special.lgamma(xs), ss.gammaln(xs)).max() < 1e-10

    @given(st.floats(min_value=1e-3, max_value=1e5))
    @settings(max_examples=60)
    def test_pointwise(self, x):
        assert rel_err(special.lgamma(x), ss.gammaln(x)).max() < 1e-10


class TestGammaKernels:
    """mpmath at 30 digits is the oracle independent of scipy."""

    # the EMB_EPS floor (1e-10) up to the novel region's 1/alpha (1e10)
    XS = np.geomspace(1e-10, 1e10, 81)

    @pytest.mark.parametrize("name, oracle, floor", [
        ("lgamma", mp.loggamma, 1.0),  # roots at 1 and 2
        ("digamma", mp.digamma, 0.0),
        ("trigamma", lambda x: mp.psi(1, x), 0.0),
    ])
    def test_against_mpmath(self, name, oracle, floor):
        with mp.workdps(30):
            ref = np.array([float(oracle(mp.mpf(float(x)))) for x in self.XS])
        got = getattr(special, name)(self.XS)
        err = np.abs(got - ref) / np.maximum(floor, np.abs(ref))
        assert err.max() <= 1e-12

    @pytest.mark.parametrize("name", ["lgamma", "digamma", "trigamma"])
    def test_dtype_contract(self, name):
        fn = getattr(special, name)
        x32 = np.array([[0.5, 3.0], [1e-3, 40.0]], dtype=np.float32)
        out = fn(x32)
        assert out.dtype == np.float32 and out.shape == x32.shape
        assert type(fn(2.5)) is float

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_lgamma_domain_error(self, bad):
        with pytest.raises(ValueError):
            special.lgamma(bad)
        with pytest.raises(ValueError):
            special.lgamma(np.array([1.0, bad]))


def float_arrays():
    """float32/float64 arrays of any values: +-0, +-inf, NaN, subnormals."""
    return st.sampled_from([np.float32, np.float64]).flatmap(
        lambda dt: hnp.arrays(
            dt, hnp.array_shapes(min_dims=0, max_dims=2, max_side=40),
            elements=st.floats(width=np.dtype(dt).itemsize * 8,
                               allow_nan=True, allow_infinity=True,
                               allow_subnormal=True)))


def edge_values(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    return np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny,
                     -tiny, 1.0, -1.0, 88.0, -88.0, 800.0, -800.0] * 3,
                    dtype=dtype)


def where_sigmoid(x):
    """The np.where form of special.sigmoid that the branch-free one
    replaced."""
    x = np.asarray(x)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out.astype(x.dtype, copy=False)


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(float_arrays())
    def test_bit_equal_to_where_form(self, x):
        with np.errstate(all="ignore"):
            got = np.asarray(special.sigmoid(x), dtype=x.dtype)
            assert got.tobytes() == where_sigmoid(x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_values_bit_equal(self, dtype):
        x = edge_values(dtype)
        got = special.sigmoid(x)
        assert got.dtype == dtype
        assert got.tobytes() == where_sigmoid(x).tobytes()
        for v in x:                            # 0-d: numpy's scalar loops
            assert np.asarray(special.sigmoid(v), dtype=dtype).tobytes() \
                == where_sigmoid(v).tobytes()

    def test_half_at_zero(self):
        assert special.sigmoid(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_stable_extremes(self):
        assert special.sigmoid(800.0) == pytest.approx(1.0)
        assert special.sigmoid(-800.0) >= 0.0
