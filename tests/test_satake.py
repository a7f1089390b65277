import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfsym.satake import (
    LocalCoefficients,
    SatakeSpectrum,
    hecke_a_values,
    hecke_b,
    hecke_b_array,
    ones_coefficients,
    rankin_product,
    spectrum_from_trace,
    sym_power_b,
    sym_power_b_array,
    sym_power_spectrum,
)


def brute_force_power_sums(alphas, nu_max):
    """Independent oracle: literal complex power sums."""
    return np.array(
        [sum(a**nu for a in alphas) for nu in range(1, nu_max + 1)]
    )


class TestHecke:
    def test_alpha_one_doubled(self):
        assert hecke_b(2.0, 5).b == pytest.approx([2, 2, 2, 2, 2])

    def test_alpha_i(self):
        b = hecke_b(0.0, 4).b
        assert b[1] == pytest.approx(-2)  # b(p^2)
        assert b[2] == pytest.approx(0)  # b(p^3)
        assert b[3] == pytest.approx(2)  # b(p^4)

    def test_sixth_root_of_unity(self):
        # a_p = 1 corresponds to alpha = e^{i pi/3}
        alpha = np.exp(1j * np.pi / 3)
        oracle = brute_force_power_sums([alpha, 1 / alpha], 6).real
        assert hecke_b(1.0, 6).b == pytest.approx(oracle.tolist())
        assert hecke_b(1.0, 6).b[1] == pytest.approx(-1)
        assert hecke_b(1.0, 6).b[5] == pytest.approx(2)

    def test_b_p2_identity(self):
        for a in (-1.7, 0.3, 2.0):
            assert hecke_b(a, 3).b[1] == pytest.approx(a * a - 2)

    def test_array_form_matches(self):
        # hecke_b wraps the array form, so check both against the spectrum
        a = np.array([-1.5, 0.0, 0.4, 2.0])
        table = hecke_b_array(a, 8)
        for j, av in enumerate(a):
            oracle = spectrum_from_trace(3, float(av)).power_sums(8).b
            assert table[:, j] == pytest.approx(np.asarray(oracle).real, abs=1e-9)
            assert hecke_b(float(av), 8).b.tolist() == table[:, j].tolist()

    def test_a_values_recursion(self):
        a = hecke_a_values(1.0, 4)
        assert a[0] == 1 and a[1] == 1
        assert a[2] == pytest.approx(1 * 1 - 1)  # = 0
        assert a[3] == pytest.approx(1 * 0 - 1)

    def test_a_values_columns_follow_traces(self):
        traces = np.array([-1.2, 0.5, 1.9])
        table = hecke_a_values(traces, 5)
        assert table.shape == (6, 3)
        for j, t in enumerate(traces):
            assert table[:, j].tolist() == hecke_a_values(t, 5).tolist()


class TestRankinProduct:
    def test_first_coefficient_multiplies(self):
        x = LocalCoefficients(p=5, degree=2, b=np.array([1.3, 0.2]))
        y = LocalCoefficients(p=5, degree=2, b=np.array([-0.7, 1.1]))
        prod = rankin_product(x, y)
        assert prod.b[0] == pytest.approx(1.3 * -0.7)
        assert prod.degree == 4

    def test_self_product_against_explicit_spectrum(self):
        # squared degree-2 factor: Satake multiset {alpha^2, 1, 1, alpha^-2}
        a_p = 0.8
        x = hecke_b(a_p, 6, p=7)
        prod = rankin_product(x, x)
        spec = spectrum_from_trace(7, a_p)
        alpha = spec.alphas[0]
        oracle = brute_force_power_sums(
            [alpha**2, 1.0, 1.0, alpha**-2], 6
        ).real
        assert prod.b == pytest.approx(oracle.tolist())

    def test_identity_factor(self):
        x = hecke_b(-1.2, 5, p=3)
        assert rankin_product(x, ones_coefficients(3, 5)).b == pytest.approx(
            x.b.tolist()
        )

    def test_prime_mismatch(self):
        with pytest.raises(ValueError):
            rankin_product(hecke_b(1.0, 3, p=3), hecke_b(1.0, 3, p=5))

    def test_truncates_to_shorter(self):
        x, y = hecke_b(0.5, 6), hecke_b(0.7, 4)
        assert rankin_product(x, y).nu_max == 4

    def test_multiplicativity_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a1, a2 = rng.uniform(-2, 2, size=2)
            prod = rankin_product(hecke_b(a1, 6), hecke_b(a2, 6))
            s1 = spectrum_from_trace(2, a1).alphas
            s2 = spectrum_from_trace(2, a2).alphas
            oracle = brute_force_power_sums(
                [x * y for x in s1 for y in s2], 6
            )
            assert np.max(np.abs(prod.b - oracle.real)) < 1e-9

    @given(st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=60)
    def test_ramanujan_closure(self, a1, a2):
        # |b| <= 2 on each factor forces |b| <= 4 on the product
        prod = rankin_product(hecke_b(a1, 8), hecke_b(a2, 8))
        assert np.all(np.abs(prod.b) <= 4.0 + 1e-9)
        assert prod.ramanujan


class TestRamanujanFlag:
    def test_tempered_flag_set(self):
        assert hecke_b(1.5, 4).ramanujan
        assert sym_power_b(0.7, 3, 4).ramanujan
        assert ones_coefficients(5, 3).ramanujan

    def test_nontempered_flag_unset(self):
        lc = hecke_b(3.0, 4)
        assert not lc.ramanujan
        assert abs(lc.b[3]) > 2  # coefficients genuinely exceed the bound

    def test_violating_construction_rejected(self):
        with pytest.raises(ValueError):
            LocalCoefficients(p=5, degree=1, b=np.array([1.5]), ramanujan=True)


class TestSymPowerSpectrum:
    def test_sym1_identity(self):
        spec = spectrum_from_trace(5, 1.3)
        lifted = sym_power_spectrum(spec, 1)
        assert sorted(np.round(lifted.alphas, 10).tolist(), key=abs) == sorted(
            np.round(spec.alphas, 10).tolist(), key=abs
        )

    def test_sym2_alpha_i(self):
        spec = SatakeSpectrum(p=5, alphas=np.array([1j, -1j]))
        lifted = sym_power_spectrum(spec, 2)
        assert sorted(lifted.alphas.real.tolist()) == pytest.approx([-1, -1, 1])
        assert np.abs(lifted.alphas.imag).max() < 1e-12

    def test_first_power_sum_is_hecke_eigenvalue(self):
        # power sum at nu=1 of the sym^M spectrum equals a(p^M)
        for a_p in (-1.9, -0.4, 0.9, 1.5):
            a = hecke_a_values(a_p, 6)
            spec = spectrum_from_trace(11, a_p)
            for M in range(1, 7):
                lifted = sym_power_spectrum(spec, M)
                assert lifted.power_sums(2).b[0] == pytest.approx(a[M])

    def test_degree_check(self):
        with pytest.raises(ValueError):
            sym_power_spectrum(SatakeSpectrum(p=2, alphas=np.array([1.0])), 2)


class TestSymPowerB:
    def test_sym2_first_entry(self):
        # B(p) = a(p^2) = a_p^2 - 1
        for a_p in (-1.2, 0.0, 0.7):
            assert sym_power_b(a_p, 2, 4).b[0] == pytest.approx(a_p**2 - 1)

    def test_sym2_trace_zero(self):
        b = sym_power_b(0.0, 2, 4)
        assert b.b[0] == pytest.approx(-1)
        # brute force over the explicit spectrum {-1, 1, -1}
        oracle = brute_force_power_sums([-1, 1, -1], 4).real
        assert b.b == pytest.approx(oracle.tolist())
        assert b.b[1] == pytest.approx(3)

    def test_sym1_is_hecke(self):
        for a_p in (-1.5, 0.3, 1.9):
            assert sym_power_b(a_p, 1, 6).b == pytest.approx(
                hecke_b(a_p, 6).b.tolist()
            )

    def test_degree(self):
        assert sym_power_b(0.5, 4, 3).degree == 5

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a_p = float(rng.uniform(-2, 2))
            M = int(rng.integers(1, 7))
            lifted = sym_power_spectrum(spectrum_from_trace(3, a_p), M)
            oracle = lifted.power_sums(6)
            got = sym_power_b(a_p, M, 6)
            assert np.max(np.abs(got.b - np.asarray(oracle.b).real)) < 1e-9

    def test_array_form_matches(self):
        # sym_power_b wraps the array form, so check it against the spectrum
        a = np.array([-1.9, -0.3, 0.0, 1.1, 2.0])
        for M in (1, 2, 3, 5):
            table = sym_power_b_array(a, M, 6)
            for j, av in enumerate(a):
                lifted = sym_power_spectrum(spectrum_from_trace(3, float(av)), M)
                oracle = np.asarray(lifted.power_sums(6).b).real
                assert table[:, j] == pytest.approx(oracle, abs=1e-9)
