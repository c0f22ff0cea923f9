import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amdiqkd.stats import (
    FLOATS,
    _beta,
    binary_entropy,
    chernoff_expected,
    chernoff_observed,
    sampling_correction,
)

BETA_1E10 = math.log(1e10)


class TestBinaryEntropy:
    def test_symmetry_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_limit_convention(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_direct_evaluation(self):
        # frozen from -x*log2(x) - (1-x)*log2(1-x) at x = 0.11
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)

    def test_concavity_on_grid(self):
        xs = np.linspace(0.0, 1.0, 41)
        for a in xs:
            for b in xs:
                mid = binary_entropy((a + b) / 2.0)
                avg = (binary_entropy(a) + binary_entropy(b)) / 2.0
                assert mid >= avg - 1e-12


class TestFailureBudget:
    """The failure probability eps of both Chernoff maps and its exponent ln(1/eps)."""

    def test_beta(self):
        assert _beta(1e-10) == pytest.approx(BETA_1E10, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-3, 2.0])
    def test_rejects_bad_eps(self, bad):
        with pytest.raises(ValueError):
            chernoff_observed(10.0, bad)
        with pytest.raises(ValueError):
            chernoff_expected(10.0, bad)


class TestChernoffObserved:
    def test_closed_form_at_zero(self):
        lower, upper = chernoff_observed(0.0, 1e-10)
        assert lower == 0.0
        assert upper == pytest.approx(BETA_1E10, rel=1e-12)

    def test_plug_in(self):
        lower, upper = chernoff_observed(1e6, 1e-10)
        assert lower == pytest.approx(993213.8595755849, rel=1e-12)
        assert upper == pytest.approx(1006797.6631159142, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1e12), st.floats(min_value=1e-15, max_value=0.5))
    @settings(max_examples=200, deadline=None)
    def test_sandwich(self, expected, eps):
        lower, upper = chernoff_observed(expected, eps)
        assert lower <= expected <= upper

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chernoff_observed(-1.0, 1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            chernoff_observed(bad, 1e-10)

    def test_coverage_poisson(self):
        # empirical coverage >= 1 - 2*eps for Poisson draws
        eps = 1e-3
        mean = 200.0
        lower, upper = chernoff_observed(mean, eps)
        rng = np.random.default_rng(20240811)
        draws = rng.poisson(mean, size=100_000)
        inside = np.mean((draws >= lower) & (draws <= upper))
        assert inside >= 1.0 - 2.0 * eps

    def test_coverage_binomial(self):
        eps = 1e-3
        n, p = 1_000_000, 2e-4
        mean = n * p
        lower, upper = chernoff_observed(mean, eps)
        rng = np.random.default_rng(7)
        draws = rng.binomial(n, p, size=100_000)
        inside = np.mean((draws >= lower) & (draws <= upper))
        assert inside >= 1.0 - 2.0 * eps


class TestChernoffExpected:
    def test_closed_form_at_zero(self):
        lower, upper = chernoff_expected(0.0, 1e-10)
        assert lower == 0.0
        assert upper == pytest.approx(2.0 * BETA_1E10, rel=1e-12)

    def test_plug_in(self):
        lower, upper = chernoff_expected(1e4, 1e-10)
        assert lower == pytest.approx(9309.775378708611, rel=1e-12)
        assert upper == pytest.approx(10702.03042264493, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1e12), st.floats(min_value=1e-15, max_value=0.5))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_sandwich(self, observed, eps):
        lower, upper = chernoff_expected(observed, eps)
        assert lower <= observed <= upper

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_bad_observed(self, bad):
        with pytest.raises(ValueError):
            chernoff_expected(bad, 1e-10)


class TestBoundHelpers:
    # the helpers the estimation bodies call on FLOATS reject what the maps
    # reject; a non-positive expected count has observed bounds 0
    @pytest.mark.parametrize("name", ["expected_lower", "expected_upper",
                                      "observed_lower", "observed_upper"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_bad_count(self, name, bad):
        helper = getattr(FLOATS, name)
        if name.startswith("observed") and bad < 0.0:
            assert helper(bad, 1e-10) == 0.0
        else:
            with pytest.raises(ValueError):
                helper(bad, 1e-10)


class TestSamplingCorrection:
    def test_plug_in_small_and_positive(self):
        val = sampling_correction(1e8, 1e8, 0.25, 1e-10)
        assert val == pytest.approx(0.00032503346598541997, rel=1e-12)
        assert 0.0 < val < 0.01

    def test_vanishes_with_statistics(self):
        sizes = [1e6, 1e8, 1e10, 1e12]
        vals = [sampling_correction(s, s, 0.25, 1e-10) for s in sizes]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-5

    def test_symmetric_in_n_k(self):
        assert sampling_correction(1e6, 1e6, 0.1, 1e-10) == sampling_correction(
            1e6, 1e6, 0.1, 1e-10
        )
        assert sampling_correction(2e6, 1e6, 0.1, 1e-10) == pytest.approx(
            sampling_correction(1e6, 2e6, 0.1, 1e-10), rel=1e-9
        )

    def test_zero_rate_clamped(self):
        # zero observed errors must not blow up the log
        val = sampling_correction(1e8, 1e7, 0.0, 1e-10)
        assert math.isfinite(val) and val >= 0.0

    @pytest.mark.parametrize("n,k", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_rejects_empty_samples(self, n, k):
        with pytest.raises(ValueError):
            sampling_correction(n, k, 0.1, 1e-10)

    @given(
        st.floats(min_value=1e3, max_value=1e10),
        st.floats(min_value=1e3, max_value=1e10),
        st.floats(min_value=1e-6, max_value=0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, n, k, rate):
        assert sampling_correction(n, k, rate, 1e-10) >= 0.0
