import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from eventfdi import (
    DomainError,
    NumericError,
    chi2_quantile,
    chi2_survival,
    gaussian_q,
    gaussian_q_inv,
    kappa,
    marcum_q,
)
from eventfdi import special
from eventfdi.special import _ncx2_sf, _ncx2_survival

from _oracles import chi2_quantile_mpmath, gaussian_tail_quad, marcum_mpmath, marcum_quad


class TestGaussianQ:
    def test_symmetry_at_zero(self):
        assert gaussian_q(0.0) == 0.5

    def test_paper_confidence_level(self):
        # the 99.87% attack target corresponds to the tail at 3
        assert gaussian_q(3.0) == pytest.approx(0.00135, abs=5e-6)

    def test_against_quadrature(self):
        assert gaussian_q(1.4) == pytest.approx(0.080757, abs=1e-6)
        assert gaussian_q(1.4) == pytest.approx(gaussian_tail_quad(1.4), abs=1e-13)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            gaussian_q(float("nan"))
        with pytest.raises(DomainError):
            gaussian_q(float("inf"))

    @given(st.floats(-8, 8))
    def test_monotone_decreasing_and_bounded(self, x):
        q = gaussian_q(x)
        assert 0.0 <= q <= 1.0
        assert gaussian_q(x + 0.25) < q


class TestGaussianQInv:
    def test_median(self):
        assert gaussian_q_inv(0.5) == pytest.approx(0.0, abs=1e-14)

    def test_paper_psi(self):
        assert gaussian_q_inv(0.0013499) == pytest.approx(3.000, abs=1e-3)

    def test_round_trip(self):
        assert gaussian_q_inv(gaussian_q(1.7)) == pytest.approx(1.7, abs=1e-9)

    @given(st.floats(-6, 6))
    def test_round_trip_identity(self, x):
        # left of about -5.5, Q(x) is within ~eps of 1 and the recoverable x
        # carries an irreducible representation error of eps / (2 pdf(x))
        floor = 1.1e-16 * math.exp(0.5 * x * x) * math.sqrt(2 * math.pi)
        assert gaussian_q_inv(gaussian_q(x)) == pytest.approx(x, abs=max(1e-9, floor))

    @given(st.floats(-5.4, 6))
    def test_round_trip_representable_range(self, x):
        assert gaussian_q_inv(gaussian_q(x)) == pytest.approx(x, abs=1e-9)

    @given(st.floats(1e-12, 1 - 1e-12))
    def test_value_contract(self, p):
        # the operation contract: gaussian_q at the returned point equals p
        assert gaussian_q(gaussian_q_inv(p)) == pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            gaussian_q_inv(p)


class TestKappa:
    def test_limit_at_zero(self):
        assert kappa(0.0) == 1.0
        assert kappa(1e-8) == pytest.approx(1.0, abs=1e-12)

    def test_paper_threshold(self):
        # direct evaluation with high-precision erf
        assert kappa(1.4) == pytest.approx(0.500, abs=1e-3)

    def test_tail_decay(self):
        assert kappa(10.0) < 1e-18

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            kappa(-0.1)


class TestChi2:
    def test_survival_at_zero(self):
        assert chi2_survival(0.0, 3) == 1.0

    def test_paper_threshold(self):
        assert chi2_survival(11.34, 3) == pytest.approx(0.01, abs=5e-4)

    def test_two_dof_closed_form(self):
        for x in (0.3, 2.0, 11.34, 40.0):
            assert chi2_survival(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)

    def test_quantile_two_dof(self):
        assert chi2_quantile(math.exp(-0.5), 2) == pytest.approx(1.0, abs=1e-9)

    def test_quantile_round_trip(self):
        v = chi2_quantile(0.05, 3)
        assert chi2_survival(v, 3) == pytest.approx(0.05, abs=1e-8)

    @pytest.mark.parametrize("dof", [1, 2, 3, 5, 8, 13, 24, 40])
    def test_quantile_vs_mpmath_root(self, dof):
        for upper_tail in (1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.3, 0.5, 0.9, 0.999):
            ref = chi2_quantile_mpmath(upper_tail, dof)
            assert chi2_quantile(upper_tail, dof) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_domains(self):
        with pytest.raises(DomainError):
            chi2_survival(-1.0, 3)
        with pytest.raises(DomainError):
            chi2_survival(1.0, 0)
        with pytest.raises(DomainError):
            chi2_quantile(0.0, 3)
        with pytest.raises(DomainError, match="must be finite as a float"):
            chi2_quantile(0.01, 10**400)


class TestMarcumQ:
    def test_survival_at_zero(self):
        for nu in (0.5, 1.0, 1.5, 2.5):
            for a in (3.3, math.sqrt(5.0)):
                assert marcum_q(nu, a, 0.0) == 1.0

    def test_zero_noncentrality_reduces_to_central(self):
        for x in (0.5, 4.0, 11.34):
            assert marcum_q(1.0, 0.0, math.sqrt(x)) == pytest.approx(
                chi2_survival(x, 2), abs=1e-10
            )

    def test_paper_active_constraint(self):
        # detector boundary at the solved attack parameters, 3-dof design
        assert marcum_q(1.5, 6.8787, 9.3296) == pytest.approx(0.0100, abs=2e-4)

    def test_half_dof_central_limit(self):
        for b in (0.5, 1.5, 3.0):
            assert marcum_q(0.5, 0.0, b) == pytest.approx(
                math.erfc(b / math.sqrt(2)), abs=1e-12
            )

    def test_integer_series_vs_oracle(self):
        for a, b in [(0.5, 1.0), (3.3, 5.5), (6.8787, 9.3296), (9.0, 4.0)]:
            assert marcum_q(1.0, a, b) == pytest.approx(marcum_quad(1.0, a, b), abs=1e-10)
            assert marcum_q(2.0, a, b) == pytest.approx(marcum_quad(2.0, a, b), abs=1e-10)

    @pytest.mark.parametrize(
        "nu, a, b", [(10.5, 8.0, 9.0), (10.5, 0.5, 1.0), (20.5, 8.0, 9.0)]
    )
    def test_large_half_order_vs_oracle(self, nu, a, b):
        # odd dof of 21 and 41: the orders an odd solver_dof >= 11 reaches
        assert marcum_q(nu, a, b) == pytest.approx(marcum_quad(nu, a, b), abs=1e-10)

    @pytest.mark.parametrize("nu", [0.5, 4.5, 12.0, 24.5])
    def test_wide_grid_vs_oracle(self, nu):
        # the orders of solver_dof up to 49, a^2/2 up to 450, Q from 1 down
        # past the resolution of the quadrature
        for a in np.linspace(0.0, 30.0, 7):
            for b in np.linspace(0.0, 35.0, 8):
                got = marcum_q(nu, float(a), float(b))
                assert got == pytest.approx(marcum_quad(nu, float(a), float(b)), abs=1e-10)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 3.0, 7.5, 12.0])
    def test_deep_tail_relative_vs_mpmath(self, nu):
        # relative accuracy over Q in [1e-15, 1e-3], where an absolute check
        # cannot tell a value from 0; b is placed at each decade of Q
        for a in (0.0, 0.5, 3.0, 6.0, 9.0):
            for target in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15):
                b = optimize.brentq(
                    lambda b: math.log(max(marcum_q(nu, a, b), 1e-300) / target),
                    a,
                    a + 40.0,
                    xtol=1e-6,
                )
                ref = marcum_mpmath(nu, a, b)
                assert 0.5 * target < ref < 2.0 * target
                assert marcum_q(nu, a, b) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "nu, a, b", [(1.0, 24828.2, 24828.2), (1.5, 3000.0, 3000.5), (2.0, 1000.0, 1000.3)]
    )
    def test_large_noncentrality_near_half_vs_mpmath(self, nu, a, b):
        # a^2/2 from 5e5 to 3e8 with Q near 1/2, where a Poisson sum loses
        # eps * lam * log(lam) if its weights are formed carelessly
        assert marcum_q(nu, a, b) == pytest.approx(marcum_mpmath(nu, a, b), rel=1e-12, abs=0.0)

    def test_saturated_tail_at_huge_noncentrality(self):
        # a^2/2 ~ 3e8, some 1e4 standard deviations into either tail: the
        # value rounds to 0 or 1 whatever the last bit of a
        a, b = 24828.218405709555, 33674.916480965476
        assert marcum_q(1.0, a, b) == 0.0
        assert marcum_q(1.0, b, a) == 1.0
        assert marcum_q(1.5, a, b) == 0.0
        assert marcum_q(1.0, math.nextafter(a, 0.0), b) == 0.0

    def test_tiny_b_is_not_rounded_to_one(self):
        # Q_0.5(0, b) = erfc(b / sqrt 2) falls from 1 linearly in b
        for b in (1e-7, 1e-9):
            assert 1.0 - marcum_q(0.5, 0.0, b) == pytest.approx(
                b * math.sqrt(2 / math.pi), rel=1e-6
            )

    def test_small_a_routes_to_central(self):
        # a^2/2 = 5e-19: within rounding of the central survival
        for nu in (0.5, 1.0, 1.5):
            dof = int(round(2 * nu))
            assert marcum_q(nu, 1e-9, 2.0) == pytest.approx(
                chi2_survival(4.0, dof), abs=1e-12
            )

    @pytest.mark.parametrize(
        "nu",
        [
            pytest.param(10**400, id="10**400"),
            pytest.param(10**4999, id="5000-digit int"),
            1.5000000001,
            0.7,
            0,
            -1,
            math.nan,
            math.inf,
            1e308,
        ],
    )
    def test_order_validation(self, nu):
        """The order's rule is the dof rule on 2 nu: an exact positive multiple of 0.5
        whose dof is finite as a float; no slack, and no error other than DomainError."""
        with pytest.raises(DomainError, match="Marcum order must be a positive multiple of 0.5"):
            marcum_q(nu, 1.0, 1.0)

    @pytest.mark.parametrize("nu", [2, 1.5, np.int64(2), np.float64(1.5)])
    def test_integer_and_float_orders_keep_bits(self, nu):
        for a, b in [(3.3, 5.5), (6.8787, 9.3296), (0.0, 1e-5)]:
            assert marcum_q(nu, a, b) == _ncx2_survival(b * b, 2.0 * float(nu), a * a)

    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_argument_validation(self, a, b):
        with pytest.raises(DomainError, match="marcum_q requires"):
            marcum_q(1.0, a, b)

    @staticmethod
    def _assert_ordered(lo_args, hi_args):
        # the order holds up to the documented relative error, near 1e-14, and is
        # strict wherever the 50-digit oracle puts the two values more than twice
        # that error apart: at saturation two values one ulp below 1 may tie
        lo, hi = marcum_q(*lo_args), marcum_q(*hi_args)
        assert lo <= hi * (1.0 + 1e-14)
        ref_lo, ref_hi = marcum_mpmath(*lo_args), marcum_mpmath(*hi_args)
        if abs(ref_hi - ref_lo) > 2e-14 * max(ref_lo, ref_hi):
            assert lo < hi

    @settings(max_examples=60)
    @given(
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 10.5, 12.0, 20.5]),
        st.floats(0.0, 9.0),
        st.floats(0.01, 2.0),
        st.floats(0.1, 15.0),
    )
    @example(12.0, 0.0, 0.015625, 1.0625)  # Q is 1 - 1.3e-12 at both a; the oracle's differ by 1 ulp
    def test_strictly_increasing_in_a(self, nu, a, gap, b):
        self._assert_ordered((nu, a, b), (nu, a + gap, b))

    @settings(max_examples=60)
    @given(
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 10.5, 12.0, 20.5]),
        st.floats(0.0, 10.0),
        st.floats(0.1, 13.0),
        st.floats(0.01, 2.0),
    )
    @example(20.5, 0.0, 1.125, 0.5)  # Q is 1 - 1 ulp at b = 1.125 and 1 at 1.625
    def test_strictly_decreasing_in_b(self, nu, a, b, gap):
        self._assert_ordered((nu, a, b + gap), (nu, a, b))

    @settings(max_examples=80)
    @given(
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 10.5, 12.0, 20.5]),
        st.floats(0.0, 12.0),
        st.floats(0.0, 16.0),
    )
    def test_output_is_probability(self, nu, a, b):
        assert 0.0 <= marcum_q(nu, a, b) <= 1.0


class TestNcx2Survival:
    """The helper behind marcum_q and attack.alarm_probability: the ufunc's value
    clipped to [0, 1]. Where the ufunc gives nan, a tail bound settles 0 or 1, or
    NumericError."""

    @pytest.mark.parametrize(
        "args", [(1.0, 2.0, math.nan), (math.nan, 2.0, 1.0), (1.0, math.nan, 1.0)]
    )
    def test_nan_argument_raises(self, args):
        with pytest.raises(NumericError, match="survival undefined"):
            _ncx2_survival(*args)

    @pytest.mark.parametrize("mu", [3e9, 1e10])
    @pytest.mark.parametrize("dof", [2.0, 3.0])
    def test_huge_noncentrality_saturates(self, mu, dof):
        """The ufunc gives nan past a noncentrality of about 5e18; the bounds give 0
        at the paper's alarm boundary, 1 far inside it, and raise at it."""
        delta_sq = 2.4828**2
        assert math.isnan(_ncx2_sf(mu * mu * 11.34, dof, mu * mu * delta_sq))
        assert _ncx2_survival(mu * mu * 11.34, dof, mu * mu * delta_sq) == 0.0
        assert _ncx2_survival(mu * mu * delta_sq, dof, mu * mu * 11.34) == 1.0
        with pytest.raises(NumericError, match="survival undefined"):
            _ncx2_survival(mu * mu * 11.34, dof, mu * mu * 11.34)

    def test_ufunc_is_not_used_past_its_accurate_range(self):
        """At 1e11 the ufunc gives 0.26 half a standard deviation above the mean, where
        the value is about 0.31; there the bounds settle nothing, so NumericError."""
        lam = 1e11
        with pytest.raises(NumericError, match="no tail bound settles it"):
            _ncx2_survival(lam + 3.0 + math.sqrt(lam), 3.0, lam)
        assert _ncx2_survival(lam + 3.0 + 100.0 * math.sqrt(lam), 3.0, lam) == 0.0
        assert _ncx2_survival(lam + 3.0 - 20.0 * math.sqrt(lam), 3.0, lam) == 1.0

    def test_infinite_boundary_is_zero(self):
        assert _ncx2_survival(math.inf, 2.0, 1.0) == 0.0
        assert marcum_q(1.0, 1.0, 1e200) == 0.0

    @pytest.mark.parametrize("lam", [1e3, 1e6, 1e10])
    @pytest.mark.parametrize("dof", [1.0, 3.0, 24.0])
    @pytest.mark.parametrize("u", [1.0, 38.0])
    def test_bounds_agree_with_the_ufunc_where_it_works(self, lam, dof, u):
        """The points the bounds settle at, on noncentralities the ufunc still handles."""
        s = dof + 2.0 * lam
        upper = dof + lam + 2.0 * math.sqrt(s * u) + 2.0 * u
        lower = dof + lam - 2.0 * math.sqrt(s * u)
        assert float(_ncx2_sf(upper, dof, lam)) <= math.exp(-u) * (1 + 1e-9)
        assert 1.0 - float(_ncx2_sf(lower, dof, lam)) <= math.exp(-u) * (1 + 1e-9) + 1e-15

    # x from 1e-4: below that, with a large noncentrality, the ufunc raises
    # OverflowError from Boost's tgamma (see the three tests after this one)
    @settings(max_examples=200)
    @given(
        st.one_of(st.just(0.0), st.floats(1e-4, 2e3)),
        st.sampled_from([1.0, 2.0, 3.0, 5.0, 24.0, 48.0]),
        st.floats(0.0, 2e3),
    )
    def test_clip_keeps_bits(self, x, dof, lam):
        raw = float(_ncx2_sf(x, dof, lam))
        got = _ncx2_survival(x, dof, lam)
        assert got == (1.0 if x == 0.0 else min(1.0, max(0.0, raw)))
        assert math.copysign(1.0, got) == 1.0  # the ufunc's -0.0 comes out as 0.0

    @pytest.mark.parametrize(
        "nu, a, b",
        [(0.5, 18.5, 1e-5), (1.0, 18.5, 1e-19), (0.5, math.sqrt(341.0), math.sqrt(1.18e-38))],
    )
    def test_ufunc_overflow_is_one_by_the_tail_bound(self, nu, a, b):
        with pytest.raises(OverflowError):
            _ncx2_sf(b * b, 2.0 * nu, a * a)
        assert marcum_q(nu, a, b) == marcum_mpmath(nu, a, b) == 1.0

    def test_ufunc_overflow_map_is_one(self):
        """A seeded sample of dof 1 to 1e4, noncentrality 200 to 1e5 and x from 1e-320
        to 1e-6, log-uniform: wherever the ufunc raises OverflowError, the value is 1."""
        rng = np.random.default_rng(20)
        overflows = 0
        for dof, lam, x in zip(
            np.floor(np.exp(rng.uniform(0.0, math.log(1e4), 400))),
            np.exp(rng.uniform(math.log(200.0), math.log(1e5), 400)),
            np.exp(rng.uniform(math.log(1e-320), math.log(1e-6), 400)),
        ):
            dof, lam, x = float(dof), float(lam), float(x)
            try:
                _ncx2_sf(x, dof, lam)
            except OverflowError:
                overflows += 1
                assert _ncx2_survival(x, dof, lam) == 1.0
        assert overflows > 300

    def test_settled_below_the_mean_without_the_ufunc(self, monkeypatch):
        """A seeded sample of dof 1 to 1e4, noncentrality 1e-2 to 1e10 and x from 1e-25
        of the mean up to it, log-uniform: wherever the lower bound settles, the value
        is 1 with no ufunc call. Up to a noncentrality of 1e4, where the ufunc is quick,
        it gives 1 there too, or overflows."""
        rng = np.random.default_rng(21)
        points = [
            (float(dof), float(lam), float((dof + lam) * shrink))
            for dof, lam, shrink in zip(
                np.floor(np.exp(rng.uniform(0.0, math.log(1e4), 600))),
                np.exp(rng.uniform(math.log(1e-2), math.log(1e10), 600)),
                np.exp(rng.uniform(math.log(1e-25), 0.0, 600)),
            )
        ]
        settled = [
            (x, dof, lam) for dof, lam, x in points
            if (dof + lam - x) ** 2 / (4.0 * (dof + 2.0 * lam)) > 38.0
        ]
        assert len(settled) > 300
        for x, dof, lam in settled:
            if lam <= 1e4:
                try:
                    assert float(_ncx2_sf(x, dof, lam)) == 1.0
                except OverflowError:
                    pass

        def no_ufunc(*args):
            raise AssertionError(f"ufunc called at {args}")

        monkeypatch.setattr(special, "_ncx2_sf", no_ufunc)
        for x, dof, lam in settled:
            assert _ncx2_survival(x, dof, lam) == 1.0

    def test_ufunc_overflow_outside_the_bound_is_numeric_error(self, monkeypatch):
        def overflowing(x, dof, lam):
            raise OverflowError("tgamma")

        monkeypatch.setattr(special, "_ncx2_sf", overflowing)
        with pytest.raises(NumericError, match="no tail bound settles it"):
            _ncx2_survival(1.0, 2.0, 1.0)
        assert _ncx2_survival(1e-10, 2.0, 341.0) == 1.0
