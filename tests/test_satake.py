import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfsym.satake import (
    SatakeSpectrum,
    hecke_b_array,
    spectrum_from_trace,
    sym_power_spectrum,
    sym_power_sums,
)


def brute_force_power_sums(alphas, nu_max):
    """Independent oracle: literal complex power sums."""
    return np.array(
        [sum(a**nu for a in alphas) for nu in range(1, nu_max + 1)]
    )


def sym_power_table(a_p, M, nu_max):
    """Power sums of the sym^M spectra of the traces a_p: the regroup of
    one ``hecke_b_array`` table through M nu_max, every member good."""
    return sym_power_sums(hecke_b_array(a_p, M * nu_max), 1.0, M)


def hecke_eigenvalue(a_p, M):
    """Independent oracle: a(p^M) = sin((M + 1) theta) / sin theta for
    a_p = 2 cos theta, and its limit (M + 1) (+-1)^M at a_p = +-2."""
    theta = np.arccos(a_p / 2)
    if np.sin(theta) == 0:
        return (M + 1) * np.sign(a_p) ** M
    return np.sin((M + 1) * theta) / np.sin(theta)


class TestHecke:
    def test_alpha_one_doubled(self):
        assert hecke_b_array(2.0, 5) == pytest.approx([2, 2, 2, 2, 2])

    def test_alpha_i(self):
        b = hecke_b_array(0.0, 4)
        assert b[1] == pytest.approx(-2)  # b(p^2)
        assert b[2] == pytest.approx(0)  # b(p^3)
        assert b[3] == pytest.approx(2)  # b(p^4)

    def test_sixth_root_of_unity(self):
        # a_p = 1 corresponds to alpha = e^{i pi/3}
        alpha = np.exp(1j * np.pi / 3)
        oracle = brute_force_power_sums([alpha, 1 / alpha], 6).real
        assert hecke_b_array(1.0, 6) == pytest.approx(oracle.tolist())
        assert hecke_b_array(1.0, 6)[1] == pytest.approx(-1)
        assert hecke_b_array(1.0, 6)[5] == pytest.approx(2)

    def test_b_p2_identity(self):
        for a in (-1.7, 0.3, 2.0):
            assert hecke_b_array(a, 3)[1] == pytest.approx(a * a - 2)

    def test_array_form_matches(self):
        # each column against the spectrum, and a lone trace gives its column
        a = np.array([-1.5, 0.0, 0.4, 2.0])
        table = hecke_b_array(a, 8)
        assert table.shape == (8, 4)
        for j, av in enumerate(a):
            oracle = spectrum_from_trace(3, float(av)).power_sums(8)
            assert table[:, j] == pytest.approx(np.asarray(oracle).real, abs=1e-9)
            assert hecke_b_array(float(av), 8).tolist() == table[:, j].tolist()


class TestRankinProduct:
    # the product's Satake multiset is {alpha_i beta_j}, so its power sums
    # are the entrywise products b_x(p^nu) b_y(p^nu) of the factors' columns

    def test_first_coefficient_multiplies(self):
        b = hecke_b_array(np.array([1.3, -0.7]), 2)
        prod = b[:, 0] * b[:, 1]
        assert prod[0] == pytest.approx(1.3 * -0.7)
        s1 = spectrum_from_trace(5, 1.3).alphas
        s2 = spectrum_from_trace(5, -0.7).alphas
        oracle = brute_force_power_sums([x * y for x in s1 for y in s2], 2).real
        assert prod == pytest.approx(oracle.tolist())

    def test_self_product_against_explicit_spectrum(self):
        # squared degree-2 factor: Satake multiset {alpha^2, 1, 1, alpha^-2}
        a_p = 0.8
        x = hecke_b_array(a_p, 6)
        prod = x * x
        spec = spectrum_from_trace(7, a_p)
        alpha = spec.alphas[0]
        oracle = brute_force_power_sums(
            [alpha**2, 1.0, 1.0, alpha**-2], 6
        ).real
        assert prod == pytest.approx(oracle.tolist())

    def test_identity_factor(self):
        x = hecke_b_array(-1.2, 5)
        ones = SatakeSpectrum(p=3, alphas=np.array([1.0])).power_sums(5)
        assert (x * ones).tolist() == x.tolist()

    def test_truncates_to_shorter(self):
        # a table's first rows do not depend on nu_max, so factors of
        # different lengths multiply on their common rows
        x, y = hecke_b_array(0.5, 6), hecke_b_array(0.7, 4)
        short = hecke_b_array(0.5, 4) * y
        assert (x[:4] * y).tobytes() == short.tobytes()

    def test_multiplicativity_random_pairs(self):
        rng = np.random.default_rng(7)
        a1, a2 = rng.uniform(-2, 2, size=(2, 1000))
        prod = hecke_b_array(a1, 6) * hecke_b_array(a2, 6)
        for j in range(1000):
            s1 = spectrum_from_trace(2, a1[j]).alphas
            s2 = spectrum_from_trace(2, a2[j]).alphas
            oracle = brute_force_power_sums(
                [x * y for x in s1 for y in s2], 6
            )
            assert np.max(np.abs(prod[:, j] - oracle.real)) < 1e-9

    def test_sym_power_times_hecke_against_spectrum(self):
        rng = np.random.default_rng(5)
        for M in (2, 3):
            a1, a2 = rng.uniform(-2, 2, size=(2, 50))
            prod = sym_power_table(a1, M, 6) * hecke_b_array(a2, 6)
            for j in range(50):
                s1 = sym_power_spectrum(spectrum_from_trace(2, a1[j]), M).alphas
                s2 = spectrum_from_trace(2, a2[j]).alphas
                oracle = brute_force_power_sums([x * y for x in s1 for y in s2], 6)
                assert np.max(np.abs(prod[:, j] - oracle.real)) < 1e-9

    @given(st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=60)
    def test_ramanujan_closure(self, a1, a2):
        # |b| <= 2 on each factor forces |b| <= 4 on the product
        prod = hecke_b_array(a1, 8) * hecke_b_array(a2, 8)
        assert np.all(np.abs(prod) <= 4.0 + 1e-9)


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
        for a_p in (-2.0, -1.9, -0.4, 0.0, 0.9, 1.5, 2.0):
            spec = spectrum_from_trace(11, a_p)
            for M in range(1, 9):
                lifted = sym_power_spectrum(spec, M)
                assert lifted.power_sums(2)[0] == pytest.approx(
                    hecke_eigenvalue(a_p, M), abs=1e-9
                )

    def test_degree_check(self):
        with pytest.raises(ValueError):
            sym_power_spectrum(SatakeSpectrum(p=2, alphas=np.array([1.0])), 2)


class TestSymPowerB:
    def test_sym2_first_entry(self):
        # B(p) = a(p^2) = a_p^2 - 1
        for a_p in (-1.2, 0.0, 0.7):
            assert sym_power_table(a_p, 2, 4)[0] == pytest.approx(a_p**2 - 1)

    def test_sym2_trace_zero(self):
        b = sym_power_table(0.0, 2, 4)
        assert b[0] == pytest.approx(-1)
        # brute force over the explicit spectrum {-1, 1, -1}
        oracle = brute_force_power_sums([-1, 1, -1], 4).real
        assert b == pytest.approx(oracle.tolist())
        assert b[1] == pytest.approx(3)

    def test_sym1_is_hecke(self):
        for a_p in (-1.5, 0.3, 1.9):
            assert sym_power_table(a_p, 1, 6) == pytest.approx(
                hecke_b_array(a_p, 6).tolist()
            )

    def test_degree(self):
        # at alpha = 1 every power sum of sym^M is its degree M + 1
        assert sym_power_spectrum(spectrum_from_trace(3, 0.5), 4).degree == 5
        assert sym_power_table(2.0, 4, 3) == pytest.approx([5, 5, 5])

    def test_first_row_is_hecke_eigenvalue(self):
        # B(p) = a(p^M), against the sine formula rather than a recursion
        a = np.array([-2.0, -1.7, -0.3, 0.0, 0.8, 1.95, 2.0])
        for M in range(1, 9):
            first = sym_power_table(a, M, 3)[0]
            oracle = [hecke_eigenvalue(av, M) for av in a]
            assert first == pytest.approx(oracle, abs=1e-9), M

    def test_columns_follow_traces(self):
        # a lone trace gives its column, and the first rows keep their bits
        # for any nu_max (the kept-table slicing rule)
        traces = np.array([-2.0, -1.2, 0.0, 0.5, 1.9, 2.0])
        for M in (1, 2, 3, 4, 5):
            table = sym_power_table(traces, M, 12)
            assert table.shape == (12, 6)
            assert table[:5].tobytes() == sym_power_table(traces, M, 5).tobytes()
            for j, t in enumerate(traces):
                assert table[:, j].tolist() == sym_power_table(t, M, 12).tolist()

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(11)
        cases = [(a_p, M) for a_p in (-2.0, 0.0, 2.0) for M in range(1, 9)]
        cases += [
            (float(rng.uniform(-2, 2)), int(rng.integers(1, 9))) for _ in range(1000)
        ]
        for a_p, M in cases:
            lifted = sym_power_spectrum(spectrum_from_trace(3, a_p), M)
            oracle = lifted.power_sums(12)
            got = sym_power_table(a_p, M, 12)
            assert np.max(np.abs(got - np.asarray(oracle).real)) < 1e-9, (a_p, M)

    def test_array_form_matches(self):
        a = np.array([-1.9, -0.3, 0.0, 1.1, 2.0])
        for M in (1, 2, 3, 5):
            table = sym_power_table(a, M, 6)
            for j, av in enumerate(a):
                lifted = sym_power_spectrum(spectrum_from_trace(3, float(av)), M)
                oracle = np.asarray(lifted.power_sums(6)).real
                assert table[:, j] == pytest.approx(oracle, abs=1e-9)

    def test_bad_members_give_zero_columns(self):
        # a member matrix: the bad columns of b are 0 and zero is the good
        # flags, so they stay 0, and the good columns keep their bits
        a = np.array([-1.9, 0.0, 0.7, 2.0, -0.4])
        good = np.array([True, False, True, False, True])
        for M in (1, 2, 3, 4):
            b = np.where(good, hecke_b_array(a, M * 5), 0.0)
            table = sym_power_sums(b, good, M)
            assert table.shape == (5, 5)
            assert not table[:, ~good].any(), M
            want = sym_power_table(a[good], M, 5)
            assert table[:, good].tobytes() == want.tobytes(), M
