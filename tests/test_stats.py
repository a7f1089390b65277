import math

import pytest

from lfsym import families
from lfsym.ecgeom import EllipticFamilySpec
from lfsym.families import (
    convolve,
    cusp_form_delta,
    dirichlet_family,
    elliptic_family,
    quadratic_family,
    ramanujan_tau_table,
    sym_lift,
)
from lfsym.rmt import fejer_test_function, zero_test_function
from lfsym.stats import (
    ConstantConfig,
    family_constant,
    pnt_prime_sum,
    predicted_density,
)

PHI_HALF = fejer_test_function(0.5)
PHI_ONE = fejer_test_function(1.0)


def constant(f, phi, P, log_r=None, nu_max=2):
    return family_constant(
        f, ConstantConfig(phi=phi, prime_cutoff=P, log_r=log_r, nu_max=nu_max)
    )


def density(f, phi, P, log_r=None, nu_max=10):
    return constant(f, phi, P, log_r, nu_max).density


class TestPrimeSum:
    def test_zero_family(self, zero_family):
        assert constant(zero_family, PHI_HALF, 100, math.log(50)).rank_estimate == 0.0

    def test_rank_one_family_detected(self):
        fam = elliptic_family(EllipticFamilySpec((0, 1), (0, -1), 300, 600))
        cfg = ConstantConfig(phi=PHI_ONE, prime_cutoff=400, tolerance=0.25)
        fc = family_constant(fam, cfg)
        assert fc.rank_estimate == pytest.approx(1.0, abs=0.35)

    def test_dirichlet_prime_sum_tiny(self):
        # every character is good at every prime but 1009, where all are
        # bad, so the first harmonic over |F| is the first-moment prime sum
        fam = dirichlet_family(1009)
        est = density(fam, PHI_HALF, 10**4, math.log(1009)).breakdown[1]
        assert abs(est) < 0.05 * PHI_HALF.phi0


class TestPrimeSquareSum:
    def test_quadratic_family_exactly_one(self):
        fam = quadratic_family((1000, 3000))
        res = constant(fam, PHI_HALF, 10**4)
        assert res.c_estimate == pytest.approx(1.0, abs=1e-12)

    def test_dirichlet_family_near_zero(self):
        fam = dirichlet_family(1009)
        res = constant(fam, PHI_HALF, 10**4, math.log(1009))
        assert abs(res.c_estimate) < 0.05

    def test_ec_family_near_minus_one(self):
        fam = elliptic_family(EllipticFamilySpec((0, 1), (1,), 300, 500))
        res = constant(fam, PHI_ONE, 300)
        assert res.c_estimate == pytest.approx(-1.0, abs=0.15)

    def test_degenerate_test_function(self):
        fam = dirichlet_family(7)
        with pytest.raises(ValueError):
            constant(fam, zero_test_function(), 100, math.log(7))

    def test_no_harmonics_rejected(self):
        with pytest.raises(ValueError, match="nu_max"):
            constant(dirichlet_family(7), PHI_ONE, 100, nu_max=0)

    def test_bad_mass_reported(self):
        fam = elliptic_family(EllipticFamilySpec((0, 1), (1,), 300, 400))
        res = constant(fam, PHI_ONE, 200)
        assert res.bad_mass > 0


def test_delta_computes_tau_as_far_as_the_prime_sums_read(monkeypatch):
    calls = []

    def counted(n_max):
        calls.append(n_max)
        return ramanujan_tau_table(n_max)

    monkeypatch.setattr(families, "ramanujan_tau_table", counted)
    fam = cusp_form_delta()
    assert calls == []
    # R = 8.9, Delta's analytic conductor: phi_hat(log p / log R) vanishes
    # from p = 11 on, so one table reaches p = 7 and no further
    family_constant(fam, ConstantConfig(PHI_ONE, prime_cutoff=500))
    assert calls == [7]


class TestPNTPrimeSum:
    def test_zero_function(self):
        assert pnt_prime_sum(zero_test_function(), 1, 1e6, 10**5) == 0.0

    def test_converges_toward_half(self):
        # the limit is F(0)/2 = 1/2; at log R = log 1e6 the Mertens-constant
        # bias still leaves roughly 0.42
        val = pnt_prime_sum(fejer_test_function(1.0), 1, 1e6, 10**7)
        assert val == pytest.approx(0.5, abs=0.12)

    def test_nu_two_smaller(self):
        phi = fejer_test_function(1.0)
        v1 = pnt_prime_sum(phi, 1, 1e6, 10**7)
        v2 = pnt_prime_sum(phi, 2, 1e6, 10**7)
        assert v2 < v1

    def test_small_r_rejected(self):
        with pytest.raises(ValueError):
            pnt_prime_sum(fejer_test_function(1.0), 1, 2.0, 100)


class TestOneLevelDensity:
    def test_zero_family_is_exactly_phi_hat0(self, zero_family):
        rep = density(zero_family, PHI_HALF, 200)
        assert rep.empirical == PHI_HALF.phi_hat0
        assert rep.breakdown[1] == 0.0 and rep.breakdown["tail"] == 0.0

    def test_internal_consistency_exact(self):
        fam = quadratic_family((1000, 2000))
        rep = density(fam, PHI_HALF, 500)
        total = (
            rep.phi_hat0
            + rep.breakdown[1]
            + rep.breakdown[2]
            + rep.breakdown["tail"]
        )
        assert rep.empirical == total  # exact, by construction

    def test_quadratic_family_direction(self):
        # symplectic: empirical below phi_hat(0), approaching 1 - phi(0)/2
        fam = quadratic_family((10**4, 2 * 10**4))
        rep = density(fam, PHI_HALF, 10**4)
        assert rep.empirical < rep.phi_hat0
        assert rep.empirical > predicted_density(1.0, 0.0, PHI_HALF)

    def test_huge_log_r_saturates_at_the_cutoff(self):
        # the support bound exp(sigma log R) is capped at P before exp
        rep = density(dirichlet_family(7), PHI_ONE, 50, log_r=1e3)
        assert math.isfinite(rep.empirical)

    def test_prediction_helper(self):
        assert predicted_density(1.0, 0.0, PHI_HALF) == pytest.approx(0.75)
        assert predicted_density(-1.0, 0.0, PHI_HALF) == pytest.approx(1.25)
        assert predicted_density(-1.0, 1.0, PHI_HALF) == pytest.approx(1.75)

    def test_bad_mass_and_log_r_reported(self):
        fam = elliptic_family(EllipticFamilySpec((0, 1), (1,), 300, 360))
        rep = density(fam, PHI_ONE, 150)
        assert rep.log_r == pytest.approx(fam.average_log_conductor())
        assert rep.bad_prime_mass > 0

    def test_rank_correction_scales_inversely_with_log_r(self):
        # rank-1 x rank-1 convolution: the first-harmonic term is a 1/log R
        # correction, so halving log R roughly doubles it
        f = elliptic_family(EllipticFamilySpec((0, 1), (0, -1), 100, 250))
        g = elliptic_family(EllipticFamilySpec((0, 1), (0, -2), 100, 250))
        conv = convolve(f, g)
        log_r = conv.average_log_conductor()
        full = density(conv, PHI_HALF, 300, log_r=log_r).breakdown[1]
        half = density(conv, PHI_HALF, 300, log_r=log_r / 2).breakdown[1]
        assert full != 0.0
        assert half / full == pytest.approx(2.0, rel=0.3)


class TestFamilyConstantClassification:
    def test_quadratic_fully_classified(self):
        fam = quadratic_family((1000, 3000))
        fc = family_constant(
            fam, ConstantConfig(phi=PHI_HALF, prime_cutoff=2000, tolerance=0.05)
        )
        assert fc.c_class == 1
        assert fc.epsilon == 0  # not orthogonal: epsilon pinned to 0
        assert abs(fc.rank_estimate) < 0.1

    def test_dirichlet_unitary(self):
        fam = dirichlet_family(1009)
        fc = family_constant(
            fam, ConstantConfig(phi=PHI_HALF, prime_cutoff=2000, tolerance=0.05)
        )
        assert fc.c_class == 0 and fc.epsilon == 0

    def test_ec_orthogonal_with_unknown_sign_split(self):
        fam = elliptic_family(EllipticFamilySpec((0, 1), (1,), 300, 500))
        fc = family_constant(
            fam, ConstantConfig(phi=PHI_ONE, prime_cutoff=300, tolerance=0.2)
        )
        assert fc.c_class == -1
        assert fc.epsilon is None  # family does not supply signs

    def test_singleton_indeterminate(self):
        fam = sym_lift(cusp_form_delta(), 2)
        fc = family_constant(
            fam, ConstantConfig(phi=PHI_ONE, prime_cutoff=500, tolerance=0.2)
        )
        assert fc.c_class is None
        assert fc.indeterminate

    def test_classifier_monotone_under_growth(self):
        # enlarging the box or the prime cutoff never flips a confident class
        tails = [(500, 300), (650, 300), (800, 450)]
        classes = []
        for hi, P in tails:
            fam = elliptic_family(EllipticFamilySpec((0, 1), (1,), 300, hi))
            fc = family_constant(
                fam, ConstantConfig(phi=PHI_ONE, prime_cutoff=P, tolerance=0.2)
            )
            classes.append(fc.c_class)
        assert classes == [-1, -1, -1]

    def test_never_silently_rounded(self):
        # estimate far from every candidate must come back indeterminate
        fam = elliptic_family(EllipticFamilySpec((0, 1), (1,), 300, 500))
        fc = family_constant(
            fam, ConstantConfig(phi=PHI_ONE, prime_cutoff=300, tolerance=0.01)
        )
        assert fc.c_class is None


@pytest.fixture(scope="module")
def lift_base_family():
    return elliptic_family(EllipticFamilySpec((0, 1), (1,), 500, 1500))


LIFT_CFG = ConstantConfig(phi=PHI_ONE, prime_cutoff=600, tolerance=0.25)


class TestFunctorialLifts:
    """The symmetry constant alternates with the symmetric-power degree,
    and a fixed degree-2 twist flips orthogonal to symplectic."""

    def test_sym2_lift_is_symplectic(self, lift_base_family):
        fc = family_constant(sym_lift(lift_base_family, 2), LIFT_CFG)
        assert fc.c_class == 1

    def test_sym3_lift_is_orthogonal(self, lift_base_family):
        fc = family_constant(sym_lift(lift_base_family, 3), LIFT_CFG)
        assert fc.c_class == -1

    def test_delta_twist_flips_to_symplectic(self, lift_base_family):
        from lfsym.families import cusp_form_delta, twist_by_fixed

        fc = family_constant(
            twist_by_fixed(cusp_form_delta(), lift_base_family), LIFT_CFG
        )
        assert fc.c_class == 1


class TestConvolutionMultiplicativity:
    def test_coefficient_level_identity(self):
        # with zero collisions the averaged square coefficients multiply
        # exactly at every prime
        f = elliptic_family(EllipticFamilySpec((0, 1), (1,), 200, 260))
        g = elliptic_family(EllipticFamilySpec((0, 1), (2,), 200, 260))
        conv = convolve(f, g)
        assert conv.excluded == []
        for p in (5, 7, 11, 13):
            mf, mg, mc = (
                x.prime_moments(p, 2) for x in (f, g, conv)
            )
            if mf.good_weight and mg.good_weight:
                fc, ff, fg = (m.sums[1] / m.good_weight for m in (mc, mf, mg))
                assert abs(fc - ff * fg) < 1e-12

    def test_symmetry_constants_multiply_small_scale(self):
        f = elliptic_family(EllipticFamilySpec((0, 1), (1,), 300, 500))
        g = elliptic_family(EllipticFamilySpec((0, 1), (2,), 300, 500))
        conv = convolve(f, g)
        cfg = ConstantConfig(phi=PHI_ONE, prime_cutoff=300, tolerance=0.25)
        cf = family_constant(f, cfg)
        cg = family_constant(g, cfg)
        cc = family_constant(conv, cfg)
        assert cf.c_class == cg.c_class == -1
        assert cc.c_class == +1
        assert cc.c_estimate == pytest.approx(
            cf.c_estimate * cg.c_estimate, abs=0.1
        )
