import collections
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfsym import ecgeom, families
from lfsym.arith import (
    characters_mod,
    dirichlet_character,
    kronecker_symbol,
    sieve_primes,
)
from lfsym.ecgeom import (
    EllipticFamilySpec,
    ap_residue_table,
    minimal_model,
    trace_of_frobenius,
)
from lfsym.families import (
    character_twist,
    convolve,
    cusp_form_delta,
    dirichlet_family,
    elliptic_family,
    fundamental_discriminants,
    kronecker_twist,
    quadratic_family,
    ramanujan_tau_table,
    sym_lift,
    twist_by_fixed,
)
from lfsym.rmt import fejer_test_function
from lfsym.satake import hecke_b_array
from lfsym.stats import ConstantConfig, family_constant

EC1 = EllipticFamilySpec((0, 1), (1,), 2000, 2040)  # y^2 = x^3 + Tx + 1
EC2 = EllipticFamilySpec((0, 1), (2,), 2000, 2040)  # y^2 = x^3 + Sx + 2


def member_b(family, member, p, nu_max):
    """(good, b) of one member at p: its column of the member matrix."""
    ((good, b),) = family._member_bs([member], np.array([p]), nu_max)
    return bool(good[0]), b[:, 0]


def member_trace(family, member, p):
    """The normalized trace a/sqrt(p) of one member of a HeckeFamily."""
    ((_, traces),) = family._member_traces([member], np.array([p]))
    return float(traces[0])


def moments_by_member_loop(family, p, nu_max):
    """Independent reference for the vectorized prime_moments path."""
    sums = np.zeros(nu_max, dtype=np.complex128)
    good = total = 0.0
    for m in family.iter_members():
        total += 1
        ok, b = member_b(family, m, p, nu_max)
        if not ok:
            continue
        good += 1
        sums += np.asarray(b, dtype=np.complex128)
    return good, total, sums


def assert_moments_match_loop(family, primes, nu_max=4, tol=1e-10):
    for p in primes:
        mom = family.prime_moments(p, nu_max)
        good, total, sums = moments_by_member_loop(family, p, nu_max)
        assert mom.good_weight == pytest.approx(good)
        assert mom.total_weight == pytest.approx(total)
        assert np.max(np.abs(mom.sums - sums)) < tol


class TestDirichletFamily:
    def test_member_count(self):
        assert dirichlet_family(7).size() == 5
        assert dirichlet_family(3).size() == 1

    def test_mod3_is_quadratic(self):
        fam = dirichlet_family(3)
        b = member_b(fam, 0, 2, 3)[1]
        assert b[0] == pytest.approx(-1)  # chi(2) = -1
        b = member_b(fam, 0, 7, 3)[1]
        assert b[0] == pytest.approx(1)  # 7 = 1 mod 3

    def test_orthogonality_average_at_2(self):
        fam = dirichlet_family(7)
        mom = fam.prime_moments(2, 1)
        assert mom.sums[0] / mom.good_weight == pytest.approx(-1 / 5)

    def test_average_at_split_prime(self):
        # 29 = 1 mod 7, so every character takes value 1
        fam = dirichlet_family(7)
        mom = fam.prime_moments(29, 1)
        assert mom.sums[0] / mom.good_weight == pytest.approx(1.0)

    def test_bad_prime(self):
        fam = dirichlet_family(7)
        assert not member_b(fam, 0, 7, 2)[0]
        assert fam.prime_moments(7, 2).good_weight == 0

    def test_moments_match_member_loop(self):
        assert_moments_match_loop(dirichlet_family(11), [2, 3, 5, 11, 23], 5)

    def test_log_conductor(self):
        assert dirichlet_family(1009).average_log_conductor() == pytest.approx(
            math.log(1009)
        )

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            dirichlet_family(15)


class TestQuadraticFamily:
    def test_fundamental_filter(self):
        assert fundamental_discriminants(3, 20).tolist() == [5, 8, 12, 13, 17]

    @pytest.mark.parametrize("stride", [1, 3])
    def test_fundamental_matches_definition(self, stride):
        def squarefree(n):
            n = abs(n)
            return n > 0 and all(n % (k * k) for k in range(2, math.isqrt(n) + 1))

        def fundamental(d):
            if d % 4 == 1:
                return squarefree(d)
            return d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4)

        expected = [d for d in range(-500, 500, stride) if fundamental(d)]
        assert fundamental_discriminants(-500, 500, stride).tolist() == expected
        negative = [d for d in expected if d < 0]
        assert fundamental_discriminants(-500, 0, stride).tolist() == negative

    def test_chi5_at_2(self):
        assert kronecker_symbol(5, 2) == -1
        fam = quadratic_family((5, 6))
        assert member_b(fam, 5, 2, 2)[1][0] == pytest.approx(-1)

    def test_square_coefficient_is_one(self):
        fam = quadratic_family((1000, 1200))
        for d in list(fam.iter_members())[:10]:
            for p in (3, 7, 11):
                if d % p:
                    assert member_b(fam, d, p, 2)[1][1] == 1.0

    def test_moments_match_member_loop(self):
        assert_moments_match_loop(quadratic_family((100, 300)), [2, 3, 5, 13], 4)

    @pytest.mark.parametrize(
        "d_range, stride",
        [
            ((100, 900), 1),
            ((-900, -100), 1),
            ((-1000, 1000), 7),
            # |d| >= 2^31: d mod p in the int64 discriminants
            ((2**31, 2**31 + 300), 1),
            ((-(2**31) - 300, -(2**31)), 1),
            # int64 although every d fits int32, where d // p * p would not
            ((-(2**31) + 1, -(2**31) + 300), 1),
            # int32 up to |d| < 2^30, which keeps d // p * p inside int32
            ((-(2**30) + 1, -(2**30) + 300), 1),
        ],
        ids=[
            "positive", "negative", "strided", "above-2^31", "below--2^31",
            "int32-edge", "int32-bound",
        ],
    )
    def test_rows_equal_the_member_loop_bitwise(self, d_range, stride):
        fam = quadratic_family(d_range, stride)
        assert fam._residue_d.dtype == (
            np.int32 if max(map(abs, d_range)) < 2**30 else np.int64
        )
        primes = sieve_primes(400).primes
        fast = fam._rows(primes, 5)
        loop = families.Family._rows(fam, primes, 5)
        for a, b in zip(fast, loop):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            quadratic_family((14, 16))

    def test_stride_subsampling(self):
        full = set(fundamental_discriminants(1000, 3000).tolist())
        sub = fundamental_discriminants(1000, 3000, stride=7)
        assert set(sub.tolist()) <= full
        assert len(sub) < len(full)


class TestEllipticFamily:
    def test_trace_example(self):
        fam = elliptic_family(EllipticFamilySpec((1,), (1,), 0, 1))
        # constant family: the t = 0 member is y^2 = x^3 + x + 1
        assert member_trace(fam, 0, 5) == pytest.approx(-3 / math.sqrt(5))

    def test_b_values(self):
        fam = elliptic_family(EC1)
        t = fam.members_list[0]
        p = 13
        a = trace_of_frobenius(EC1.A(t), EC1.B(t), p)
        b = member_b(fam, t, p, 4)[1]
        assert b[0] == pytest.approx(a / math.sqrt(p))
        assert b[1] == pytest.approx(a * a / p - 2)

    def test_hasse(self):
        fam = elliptic_family(EC1)
        for p in (5, 11, 29):
            for t in fam.members_list[:8]:
                assert abs(member_trace(fam, t, p)) <= 2.0

    def test_singular_fibers_skipped(self):
        # Delta(t) = -16 t^2 (4t + 27) vanishes at t = 0
        spec = EllipticFamilySpec((0, 1), (0, -1), -2, 3)  # x^3 + Tx - T
        fam = elliptic_family(spec)
        assert 0 in fam.singular_fibers
        assert 0 not in fam.members_list

    def test_bad_primes(self):
        fam = elliptic_family(EC1)
        t = fam.members_list[0]
        assert not member_b(fam, t, 2, 2)[0] and not member_b(fam, t, 3, 2)[0]
        delta = EC1.discriminant(t)
        bad = [p for p in (5, 7, 11, 13) if delta % p == 0]
        for p in bad:
            assert not member_b(fam, t, p, 2)[0]

    @pytest.mark.parametrize("t_min", [50, 2**64 + 50], ids=["small", "beyond-int64"])
    def test_member_matrix_equals_the_character_sum_oracle(self, t_min):
        # the member matrix reads the residue table of the fast rows, so it
        # is checked against the O(p) character sum of each curve
        spec = EllipticFamilySpec((0, 1), (1,), t_min, t_min + 30)
        fam = elliptic_family(spec)
        members = fam.members_list
        bad_seen = False
        primes = sieve_primes(60).primes
        for p, (good, b) in zip(primes.tolist(), fam._member_bs(members, primes, 5)):
            for k, t in enumerate(members):
                if p < 5 or spec.discriminant(t) % p == 0:
                    bad_seen |= p >= 5
                    assert not good[k] and not b[:, k].any(), (t, p)
                    continue
                a = trace_of_frobenius(spec.A(t), spec.B(t), p)
                want = hecke_b_array(a / math.sqrt(p), 5)
                assert good[k] and b[:, k].tobytes() == want.tobytes(), (t, p)
        assert bad_seen

    def test_moments_match_member_loop(self):
        fam = elliptic_family(EllipticFamilySpec((0, 1), (1,), 50, 80))
        assert_moments_match_loop(fam, [5, 7, 11], 4)

    def test_independence_identity_small(self):
        # sum over t mod p1 p2 of a^r1(p1) a^r2(p2) factors exactly
        spec = EC1
        for p1, p2 in [(5, 7), (7, 11)]:
            t1 = ap_residue_table(spec, p1)
            t2 = ap_residue_table(spec, p2)
            for r1 in (1, 2):
                for r2 in (1, 2):
                    joint = sum(
                        int(t1[t % p1]) ** r1 * int(t2[t % p2]) ** r2
                        for t in range(p1 * p2)
                    )
                    assert joint == int((t1**r1).sum()) * int((t2**r2).sum())

    def test_identically_singular_rejected(self):
        with pytest.raises(ValueError):
            elliptic_family(EllipticFamilySpec((0,), (0,), 0, 5))

    @pytest.mark.parametrize("t_max", [600, 500])
    def test_empty_box_rejected(self, t_max):
        with pytest.raises(ValueError, match=rf"\[600, {t_max}\) is empty"):
            elliptic_family(EllipticFamilySpec((0, 1), (1,), 600, t_max))

    def test_trace_distribution_is_a_short_histogram(self):
        fam = elliptic_family(EllipticFamilySpec((0, 1), (1,), 50, 150))
        primes = np.array([3, 5, 7, 31, 97])
        for p in primes.tolist():
            [(values, weights)] = families._trace_histograms([fam], p)
            assert len(values) <= 2 * math.isqrt(4 * p) + 1
            assert len(set(values.tolist())) == len(values)
            assert weights.sum() == fam.prime_moments(p, 2).good_weight
            assert (len(values) == 0) == (p == 3)

    def test_hasse_violation_rejected(self, monkeypatch):
        monkeypatch.setattr(
            families,
            "ap_residue_tables",
            lambda specs, context: (np.full(context.p, 5, np.int64) for _ in specs),
        )
        fam = elliptic_family(EC1)
        with pytest.raises(ValueError, match="sqrt"):
            fam.prime_moments(5, 2)  # 5^2 > 4 * 5

    # boxes of N = 17, 5, 3, 35 and 10 parameters, against p = 5..17: N < p,
    # N = p (17, 5), N > p and p | N (35 at 5 and 7, 10 at 5); Delta of
    # x^3 - 3Tx + 2T is 108 T^2 (T - 1) times a unit, singular at 0 and 1
    @pytest.mark.parametrize(
        "box", [(-7, 10), (-3, 2), (0, 3), (-20, 15), (-1000, -990)]
    )
    @pytest.mark.parametrize(
        "coeffs", [((0, -3), (0, 2)), ((0, 1), (1,)), ((0, 1), (1, 0, 1))],
        ids=["singular", "linear", "quadratic"],
    )
    def test_residue_weights_count_the_members(self, box, coeffs):
        spec = EllipticFamilySpec(*coeffs, *box)
        fam = elliptic_family(spec)
        if coeffs[0] == (0, -3) and box[0] <= 0 < box[1]:
            assert 0 in fam.singular_fibers
        for p in (5, 7, 11, 13, 17):
            _, weights = fam.residue_data(p)
            counts = np.bincount([t % p for t in fam.members_list], minlength=p)
            good = [
                (4 * spec.A(r) ** 3 + 27 * spec.B(r) ** 2) % p != 0 for r in range(p)
            ]
            assert weights.tolist() == (counts * good).tolist(), p


KNOWN_TAU = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


def pentagonal_tau_table(n_max):
    """Independent oracle: tau(1..n_max) from the 24th power of Euler's
    pentagonal series prod (1 - q^n) = sum_k (-1)^k q^(k(3k-1)/2)."""
    pent = [
        (k * (3 * k - 1) // 2, -1 if k % 2 else 1)
        for k in range(-math.isqrt(n_max) - 1, math.isqrt(n_max) + 2)
        if k * (3 * k - 1) // 2 < n_max
    ]
    series = [1] + [0] * (n_max - 1)
    for _ in range(24):
        nxt = [0] * n_max
        for e, s in pent:
            for i in range(n_max - e):
                nxt[i + e] += s * series[i]
        series = nxt
    return series


class TestDeltaFamily:
    def test_tau_values(self):
        assert ramanujan_tau_table(10) == KNOWN_TAU

    def test_tau_hecke_at_prime_square(self):
        tau = ramanujan_tau_table(10)
        assert tau[3] == tau[1] ** 2 - 2**11  # tau(4) = tau(2)^2 - 2^11
        assert tau[8] == tau[2] ** 2 - 3**11  # tau(9) = tau(3)^2 - 3^11

    def test_tau_multiplicative(self):
        tau = ramanujan_tau_table(36)
        for m, n in [(2, 3), (2, 5), (3, 5), (4, 9), (5, 7)]:
            assert tau[m * n - 1] == tau[m - 1] * tau[n - 1]

    def test_tau_ramanujan_congruence(self):
        # tau(n) = sigma_11(n) mod 691
        n_max = 2000
        sigma = [0] * (n_max + 1)
        for d in range(1, n_max + 1):
            for m in range(d, n_max + 1, d):
                sigma[m] += d**11
        tau = ramanujan_tau_table(n_max)
        assert all((tau[n - 1] - sigma[n]) % 691 == 0 for n in range(1, n_max + 1))

    def test_tau_matches_pentagonal_product(self):
        assert ramanujan_tau_table(1000) == pentagonal_tau_table(1000)
        assert ramanujan_tau_table(1) == [1]

    def test_normalized_second_coefficient(self):
        fam = cusp_form_delta()
        assert member_trace(fam, "delta", 2) == pytest.approx(
            -24 / 2**5.5, abs=1e-10
        )
        assert member_trace(fam, "delta", 2) == pytest.approx(-0.5303, abs=1e-4)

    def test_deligne_bound(self):
        tau = ramanujan_tau_table(100)
        for p in [int(q) for q in sieve_primes(100).primes]:
            assert tau[p - 1] ** 2 <= 4 * p**11

    def test_delta_is_one_stateless_instance(self):
        fam = cusp_form_delta()
        assert fam is cusp_form_delta()
        state = dict(vars(fam))
        fam.moment_table(200, 4)
        assert member_trace(fam, "delta", 7) == pytest.approx(-16744 / 7**5.5)
        assert member_trace(fam, "delta", 11) == pytest.approx(534612 / 11**5.5)
        assert vars(fam) == state

    def test_moments_match_member_loop(self):
        assert_moments_match_loop(cusp_form_delta(), [2, 3, 5, 59], 4)

    def test_deligne_violation_rejected(self, monkeypatch):
        def faulty(n_max):
            tau = ramanujan_tau_table(n_max)
            tau[4] = 3 * 5**6  # tau(5) beyond 2 * 5^5.5
            return tau

        monkeypatch.setattr(families, "ramanujan_tau_table", faulty)
        with pytest.raises(ValueError, match="tau"):
            cusp_form_delta().prime_moments(5, 2)

    def test_log_conductor_from_gamma_shift(self):
        # GammaC(s + 11/2) contributes (11/2)(13/2)/4
        fam = cusp_form_delta()
        assert fam.log_conductor("delta") == pytest.approx(
            math.log(5.5 * 6.5 / 4)
        )


class TestSymLift:
    def test_sym1_is_identity(self):
        fam = elliptic_family(EC1)
        assert sym_lift(fam, 1) is fam

    def test_degree(self):
        assert sym_lift(elliptic_family(EC1), 3).degree == 4

    def test_sym2_at_trace_zero(self):
        # t = 0 member of x^3 + Tx + 1 has a_0(5) = 0, so B(5) = -1
        base = elliptic_family(EllipticFamilySpec((0, 1), (1,), 0, 5))
        lifted = sym_lift(base, 2)
        assert member_b(lifted, 0, 5, 3)[1][0] == pytest.approx(-1.0)

    def test_moments_match_member_loop(self):
        base = elliptic_family(EllipticFamilySpec((0, 1), (1,), 30, 60))
        for M in (2, 3):
            assert_moments_match_loop(sym_lift(base, M), [5, 11], 4)

    def test_delta_lift_moments_match_member_loop(self):
        assert_moments_match_loop(sym_lift(cusp_form_delta(), 3), [2, 7, 59], 4)

    def test_conductor_scaling_even_odd(self):
        base = elliptic_family(EC1)
        t = base.members_list[0]
        assert sym_lift(base, 2).log_conductor(t) == pytest.approx(
            base.log_conductor(t)
        )
        assert sym_lift(base, 3).log_conductor(t) == pytest.approx(
            2 * base.log_conductor(t)
        )

    def test_delta_lift_uses_exact_gamma_data(self):
        from lfsym.weil import disc, log_analytic_conductor, sym_power

        lifted = sym_lift(cusp_form_delta(), 4)
        assert lifted.log_conductor("delta") == pytest.approx(
            log_analytic_conductor(sym_power(disc(12), 4))
        )

    def test_degree_one_base_rejected(self):
        with pytest.raises(ValueError):
            sym_lift(dirichlet_family(7), 2)

    def test_lifts_of_one_curve_are_one_form(self):
        # the boxes [10, 30) and [20, 40) of x^3 + Tx + 1 share ten curves,
        # so their symmetric squares share ten forms, whose self-products
        # are not cuspidal; lifts to different powers share none
        e1 = elliptic_family(EllipticFamilySpec((0, 1), (1,), 10, 30))
        e2 = elliptic_family(EllipticFamilySpec((0, 1), (1,), 20, 40))
        assert len(convolve(e1, e2).excluded) == 10
        lifts = convolve(sym_lift(e1, 2), sym_lift(e2, 2))
        assert lifts.excluded == [(t, t) for t in range(20, 30)]
        assert convolve(sym_lift(e1, 2), sym_lift(e2, 3)).excluded == []
        assert_moments_match_loop(lifts, [5, 11, 13], 3)

    def test_twisted_family_rejected(self):
        # degree 2, but a twist has no Hecke eigenvalues of its own
        twisted = twist_by_fixed(kronecker_twist(5), elliptic_family(EC1))
        assert twisted.degree == 2
        with pytest.raises(ValueError, match="Hecke"):
            sym_lift(twisted, 2)


def curves_isomorphic(A1, B1, A2, B2):
    return minimal_model(A1, B1) == minimal_model(A2, B2)


class TestCurvesIsomorphic:
    def test_identical(self):
        assert curves_isomorphic(3, 5, 3, 5)

    def test_scaled(self):
        assert curves_isomorphic(2, 3, 2 * 16, 3 * 64)  # u = 2

    def test_quadratic_twist_not_isomorphic(self):
        # (A, B) vs (u^4 A, u^6 B) with u^2 = 5 is a twist, not isomorphic
        assert not curves_isomorphic(2, 3, 2 * 25, 3 * 125)

    def test_different_j(self):
        assert not curves_isomorphic(1, 1, 1, 2)

    def test_j_zero_family(self):
        assert curves_isomorphic(0, 2, 0, 2 * 64)  # u = 2: B scales by 2^6
        assert not curves_isomorphic(0, 2, 0, 2 * 32)

    @settings(max_examples=200, deadline=None)
    @given(
        A=st.integers(-10**4, 10**4),
        B=st.integers(-10**4, 10**4),
        a=st.integers(1, 30),
        b=st.integers(1, 30),
        d=st.sampled_from([-7, -3, -1, 2, 3, 5, 6, 10, 15, -30]),
    )
    def test_rescalings_isomorphic_twists_not(self, A, B, a, b, d):
        if 4 * A**3 + 27 * B**2 == 0:
            return
        assert curves_isomorphic(A * a**4, B * a**6, A * b**4, B * b**6)
        # (A, 0) twisted by d = -1 is the same curve: y -> i y, x -> -x
        if A * B != 0:
            assert not curves_isomorphic(A, B, A * d**2, B * d**3)


class TestConvolution:
    def test_degree(self):
        conv = convolve(elliptic_family(EC1), elliptic_family(EC2))
        assert conv.degree == 4

    def test_no_collisions_between_these_families(self):
        conv = convolve(elliptic_family(EC1), elliptic_family(EC2))
        assert conv.excluded == []
        assert conv.size() == 40 * 40

    def test_diagonal_collisions_same_family(self):
        f = elliptic_family(EllipticFamilySpec((0, 1), (1,), 10, 30))
        g = elliptic_family(EllipticFamilySpec((0, 1), (1,), 10, 30))
        conv = convolve(f, g)
        assert conv.excluded == [(t, t) for t in f.members_list]
        assert conv.size() == 20 * 20 - 20

    def test_coefficients_multiply(self):
        f, g = elliptic_family(EC1), elliptic_family(EC2)
        conv = convolve(f, g)
        t, s = f.members_list[0], g.members_list[1]
        bf = member_b(f, t, 7, 3)[1]
        bg = member_b(g, s, 7, 3)[1]
        assert member_b(conv, (t, s), 7, 3)[1].tobytes() == (bf * bg).tobytes()

    def test_moments_product_identity(self):
        f, g = elliptic_family(EC1), elliptic_family(EC2)
        conv = convolve(f, g)
        for p in (5, 7, 11):
            mf, mg = f.prime_moments(p, 2), g.prime_moments(p, 2)
            mc = conv.prime_moments(p, 2)
            assert mc.good_weight == pytest.approx(mf.good_weight * mg.good_weight)
            assert np.max(np.abs(mc.sums - mf.sums * mg.sums)) < 1e-12

    def test_moments_match_member_loop_with_exclusions(self):
        f = elliptic_family(EllipticFamilySpec((0, 1), (1,), 10, 25))
        conv = convolve(f, elliptic_family(EllipticFamilySpec((0, 1), (1,), 10, 25)))
        assert_moments_match_loop(conv, [5, 7], 3)

    def test_residue_tables_per_prime_do_not_grow_with_excluded_pairs(
        self, monkeypatch
    ):
        # the excluded pairs at a prime are one member matrix, whatever
        # their number, and a self-convolution reads both of its pairs'
        # members from one call of its factor: a prime builds two residue
        # tables, one for f's rows and one for the excluded pairs, for 30
        # pairs as for 60
        calls = []
        tables = families.ap_residue_tables

        def counted(specs, context):
            calls.extend([context.p] * len(specs))
            return tables(specs, context)

        monkeypatch.setattr(families, "ap_residue_tables", counted)
        per_prime = []
        for n in (30, 60):
            f = elliptic_family(EllipticFamilySpec((0, 1), (1,), 10, 10 + n))
            conv = convolve(f, f)
            assert len(conv.excluded) == n
            calls.clear()
            for p in (5, 7, 11):
                conv.prime_moments(p, 2)
            per_prime.append(collections.Counter(calls))
        assert per_prime[0] == per_prime[1] == {5: 2, 7: 2, 11: 2}

    @pytest.mark.parametrize("m", [7, 11, 13])
    def test_self_convolution_rows_subtract_excluded_pairs_in_order(self, m):
        # the product of the factor's rows, less each good excluded pair's
        # b_f * b_g, one pair at a time in the order of conv.excluded
        f = dirichlet_family(m)
        conv = convolve(f, f)
        assert len(conv.excluded) == m - 2
        primes = sieve_primes(200).primes
        table = f.moment_table(200, 5)
        good, sums = conv._rows(primes, 5, [(table.good, table.sums)] * 2)
        assert conv.size() == (m - 2) ** 2 - (m - 2)
        for i, p in enumerate(primes.tolist()):
            row = table.sums[i] * table.sums[i]
            weight = table.good[i] * table.good[i]
            for a, c in conv.excluded:
                ok_a, b_a = member_b(f, a, p, 5)
                ok_c, b_c = member_b(f, c, p, 5)
                if ok_a and ok_c:
                    row = row - b_a * b_c
                    weight -= 1
            assert np.array_equal(sums[i], row), p
            assert good[i] == weight

    def test_identity_policy_for_character_families(self):
        # chi_j chi_k is trivial when j + k = 0 mod 10: member k (index k + 1)
        # meets member 8 - k, and the quadratic member 4 meets itself
        f = dirichlet_family(11)
        conv = convolve(f, f)
        assert conv.excluded == [(8 - k, k) for k in range(9)]
        assert conv.size() == 9 * 9 - 9

    def test_log_conductor_midpoint(self):
        from lfsym.ecgeom import conductor_proxy, rs_conductor_bounds

        f, g = elliptic_family(EC1), elliptic_family(EC2)
        conv = convolve(f, g)
        t, s = f.members_list[0], g.members_list[0]
        c1 = conductor_proxy(EC1.A(t), EC1.B(t))
        c2 = conductor_proxy(EC2.A(s), EC2.B(s))
        lo, hi = rs_conductor_bounds(c1, c2)
        assert conv.log_conductor((t, s)) == pytest.approx(
            0.5 * (math.log(lo) + math.log(hi))
        )


class TestTwists:
    def test_quadratic_twist_preserves_square_moments(self):
        base = elliptic_family(EC1)
        twisted = twist_by_fixed(kronecker_twist(5), base)
        for p in (7, 11, 13):
            mb = base.prime_moments(p, 2)
            mt = twisted.prime_moments(p, 2)
            assert mt.sums[1] == pytest.approx(mb.sums[1])  # chi(p)^2 = 1

    def test_twist_bad_prime_union(self):
        base = elliptic_family(EC1)
        twisted = twist_by_fixed(kronecker_twist(5), base)
        assert twisted.prime_moments(5, 2).good_weight == 0

    def test_character_twist_rotates(self):
        base = elliptic_family(EC1)
        tw = character_twist(7, 1)
        twisted = twist_by_fixed(tw, base)
        p = 13
        chi2 = tw.char.power_value(p, 2)
        mb = base.prime_moments(p, 2)
        mt = twisted.prime_moments(p, 2)
        assert mt.sums[1] == pytest.approx(chi2 * mb.sums[1])

    def test_delta_twist_square_coefficient(self):
        tw = cusp_form_delta()
        for p in (2, 3, 5):
            b = member_b(tw, "delta", p, 2)[1]
            a = member_trace(tw, "delta", p)
            assert b[1] == pytest.approx(a * a - 2)

    def test_twisted_log_conductor(self):
        base = elliptic_family(EC1)
        twisted = twist_by_fixed(kronecker_twist(5), base)
        t = base.members_list[0]
        assert twisted.log_conductor((5, t)) == pytest.approx(
            base.log_conductor(t) + 2 * math.log(5)
        )

    @pytest.mark.parametrize(
        "make_twist",
        [
            lambda: kronecker_twist(5),
            lambda: character_twist(7, 1),
            cusp_form_delta,
        ],
        ids=["kronecker", "character", "delta"],
    )
    def test_twist_is_convolution_with_one_member(self, make_twist):
        h = make_twist()
        base = elliptic_family(EllipticFamilySpec((0, 1), (1,), 20, 45))
        twisted = twist_by_fixed(h, base)
        conv = convolve(h, base)
        assert twisted.excluded == conv.excluded == []
        assert list(twisted.iter_members()) == list(conv.iter_members())
        a, b = twisted.moment_table(59, 4), conv.moment_table(59, 4)
        for field in ("primes", "good", "sums"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert twisted.average_log_conductor() == conv.average_log_conductor()

    def test_convolution_conductor_is_degree_weighted(self):
        # q_{chi x E} = q_chi^deg(E) q_E^deg(chi) = 11^2 N_t
        chars, ec = dirichlet_family(11), elliptic_family(EC1)
        conv = convolve(chars, ec)
        for t in ec.members_list[:5]:
            assert conv.log_conductor((0, t)) == pytest.approx(
                2 * math.log(11) + ec.log_conductor(t)
            )
        assert conv.average_log_conductor() == pytest.approx(
            2 * math.log(11) + ec.average_log_conductor()
        )

    def test_moments_match_member_loop(self):
        base = elliptic_family(EllipticFamilySpec((0, 1), (1,), 20, 45))
        twisted = twist_by_fixed(character_twist(7, 2), base)
        assert_moments_match_loop(twisted, [5, 11, 13], 4)

    @pytest.mark.parametrize("d", [-4, 5, -7, 8, 12])
    def test_table_equals_the_per_prime_path_bitwise(self, d):
        # the chi(p) rows, in one block and in three, against the quadratic
        # family's Legendre rows of d alone
        h = kronecker_twist(d)
        primes = sieve_primes(1000).primes
        legendre = families.QuadraticFamily._rows(h, primes, 6)
        for threads in (1, 3):
            table = families.moment_tables({h: 1000}, 6, threads)[h]
            assert table.primes.tobytes() == primes.tobytes()
            for a, b in zip((table.good, table.sums), legendre):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "make_twist",
        [
            lambda: kronecker_twist(1),
            lambda: kronecker_twist(0),
            lambda: kronecker_twist(9),
            lambda: kronecker_twist(-4 * 9),
            lambda: kronecker_twist(20),
            lambda: character_twist(7, 0),
        ],
        ids=["d=1", "d=0", "d=9", "d=-36", "d=20", "trivial-character"],
    )
    def test_imprimitive_twist_rejected(self, make_twist):
        # log |d| and log modulus are conductors only of primitive characters
        with pytest.raises(ValueError):
            make_twist()

    def test_primitive_twists_accepted(self):
        for d in (-8, -4, -3, 5, 8, 12):
            assert kronecker_twist(d).d == d
        assert character_twist(7, 3).char.index == 3


# one-member character families, Dirichlet members and quadratic members,
# among which (.|5) = chi_2 mod 5 = (5|.), (.|7) = chi_3 mod 7 = (-7|.) and
# chi_1 mod 7, chi_5 mod 7 are conjugate
CHARACTER_MEMBERS = (
    [(kronecker_twist(d), d) for d in (-7, -4, 5, 8)]
    + [(character_twist(m, j), j - 1) for m, j in ((5, 2), (7, 1), (7, 3), (7, 5))]
    + [
        (fam, member)
        for fam in [*map(dirichlet_family, (3, 5, 7, 13)), quadratic_family((-20, 30))]
        for member in fam.iter_members()
    ]
)


def character_pairs():
    """(family, member, b(p) at every prime p < 300) for every pair of
    CHARACTER_MEMBERS; characters of these conductors agree at every such
    prime exactly when they are equal."""
    primes = sieve_primes(300).primes.tolist()
    rows = [
        (fam, f, np.array([member_b(fam, f, p, 1)[1][0] for p in primes]))
        for fam, f in CHARACTER_MEMBERS
    ]
    return [(a, b) for a in rows for b in rows]


class TestFormKeys:
    def test_equal_keys_iff_equal_characters(self):
        for (fam, f, u), (gam, g, v) in character_pairs():
            same = np.allclose(u, v)
            assert (fam.form_key(f) == gam.form_key(g)) == same, (fam, f, gam, g)

    def test_dual_key_is_the_conjugates_key(self):
        for (fam, f, u), (gam, g, v) in character_pairs():
            dual = np.allclose(np.conj(u), v)
            assert (fam.dual_key(f) == gam.form_key(g)) == dual, (fam, f, gam, g)

    @pytest.mark.parametrize("m", [3, 5, 7, 11, 13, 101])
    def test_quadratic_character_of_prime_modulus_is_kronecker(self, m):
        m_star = m if m % 4 == 1 else -m
        chi = dirichlet_character(m, (m - 1) // 2)
        member = (m - 1) // 2 - 1
        assert dirichlet_family(m).form_key(member) == ("kronecker", m_star)
        assert kronecker_twist(m_star).form_key(m_star) == ("kronecker", m_star)
        for a in range(1, m):
            assert kronecker_symbol(m_star, a) == pytest.approx(chi(a))

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([3, 5, 7, 11, 13]))
    def test_excluded_pairs_are_those_of_trivial_product(self, m):
        chars = [dirichlet_character(m, j) for j in range(1, m - 1)]
        trivial = {
            (j, k)
            for j, a in enumerate(chars)
            for k, b in enumerate(chars)
            if np.allclose((a.values * b.values)[1:], 1)
        }
        conv = convolve(dirichlet_family(m), dirichlet_family(m))
        assert set(conv.excluded) == trivial

    def test_convolution_keys_are_the_sets_of_their_factors_keys(self):
        # C pairs the characters chi_1, chi_2, chi_3 mod 5 (members 0, 1, 2;
        # member i's conjugate is 2 - i).  A pair (X, Y) of C x C is excluded
        # iff Y's factors are the conjugates of X's, in either order, and
        # then X x Y is trivial.  X x X is the quadratic character when X's
        # factors differ, so those pairs are kept.
        c = convolve(dirichlet_family(5), dirichlet_family(5))
        cc = convolve(c, c)
        assert c.form_key((0, 1)) == c.form_key((1, 0))
        assert c.dual_key((0, 1)) == c.form_key((2, 1))
        conjugate = {
            (x, y)
            for x in c.iter_members()
            for y in c.iter_members()
            if sorted(y) == sorted(2 - i for i in x)
        }
        assert set(cc.excluded) == conjugate and len(conjugate) == 10
        primes = np.array([2, 3, 7, 13])
        _, b = zip(*cc._member_bs(cc.excluded, primes, 1))
        assert np.allclose(b, 1)
        squares = [((0, 1),) * 2, ((1, 0),) * 2, ((1, 2),) * 2, ((2, 1),) * 2]
        assert set(squares) <= set(cc.iter_members())
        _, b = zip(*cc._member_bs(squares, primes, 1))
        assert np.allclose(b, -1)
        assert_moments_match_loop(cc, [2, 3, 7, 11], 2)

    @pytest.mark.parametrize(
        "make, excluded",
        [
            (
                lambda: convolve(dirichlet_family(7), dirichlet_family(7)),
                [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)],
            ),
            (
                lambda: twist_by_fixed(kronecker_twist(5), quadratic_family((1, 20))),
                [(5, 5)],
            ),
            (
                lambda: convolve(
                    quadratic_family((1, 20)), quadratic_family((10, 40))
                ),
                [(12, 12), (13, 13), (17, 17)],
            ),
            (
                lambda: convolve(dirichlet_family(5), quadratic_family((1, 20))),
                [(1, 5)],
            ),
            (
                lambda: convolve(dirichlet_family(7), quadratic_family((-10, 0))),
                [(2, -7)],
            ),
        ],
        ids=["dirichlet-self", "kronecker-twist", "quadratic-windows",
             "dirichlet-quadratic", "dirichlet-negative-quadratic"],
    )
    def test_one_form_in_two_families_is_excluded(self, make, excluded):
        conv = make()
        assert conv.excluded == excluded
        assert conv.size() == conv.left.size() * conv.right.size() - len(excluded)
        assert_moments_match_loop(conv, [2, 3, 5, 7, 11], 3)


ROW_COUNT_FAMILIES = {
    "dirichlet": lambda: dirichlet_family(11),
    "quadratic": lambda: quadratic_family((100, 300)),
    "elliptic-linear": lambda: elliptic_family(EC1),
    "elliptic-degree-2": lambda: elliptic_family(
        EllipticFamilySpec((0, 1), (1, 0, 1), 200, 240)
    ),
    "delta": cusp_form_delta,
    "sym-lift": lambda: sym_lift(elliptic_family(EC1), 2),
    "convolution": lambda: convolve(elliptic_family(EC1), elliptic_family(EC1)),
    "twist": lambda: twist_by_fixed(kronecker_twist(5), elliptic_family(EC1)),
}


class TestMomentTable:
    @pytest.mark.parametrize("kind", list(ROW_COUNT_FAMILIES))
    def test_first_rows_do_not_depend_on_row_count(self, kind):
        # one table serves c (two rows) and D1 (nu_max rows) bit for bit
        fam = ROW_COUNT_FAMILIES[kind]()
        if kind == "convolution":
            assert fam.excluded  # each curve collides with itself
        short, long = fam.moment_table(200, 2), fam.moment_table(200, 10)
        assert np.array_equal(short.sums, long.sums[:, :2])
        assert np.array_equal(short.good, long.good)

    @pytest.mark.parametrize(
        "build",
        [lambda e: e, lambda e: sym_lift(e, 2), lambda e: convolve(e, e)],
        ids=["elliptic", "sym-lift", "self-convolution"],
    )
    def test_one_column_table_is_the_first_column(self, build):
        # b(p) alone, for families whose members' b(p^2) comes from a_p too
        spec = EllipticFamilySpec((0, 1), (1,), 20, 60)
        one = build(elliptic_family(spec)).moment_table(50, 1)
        two = build(elliptic_family(spec)).moment_table(50, 2)
        for field in ("primes", "log_p", "good"):
            assert getattr(one, field).tobytes() == getattr(two, field).tobytes()
        assert one.sums.tobytes() == two.sums[:, :1].copy().tobytes()

    @pytest.mark.parametrize(
        "kind", list(ROW_COUNT_FAMILIES) + ["kronecker-twist", "character-twist"]
    )
    def test_members_vanish_at_bad_primes(self, kind):
        build = {
            **ROW_COUNT_FAMILIES,
            "kronecker-twist": lambda: kronecker_twist(-4),
            "character-twist": lambda: character_twist(7, 1),
        }[kind]
        fam = build()
        members = list(fam.iter_members())
        sample = members[:: max(1, len(members) // 40)]
        bad = 0
        primes = sieve_primes(100).primes
        for p, (good, b) in zip(primes.tolist(), fam._member_bs(sample, primes, 4)):
            assert good.dtype == bool and b.shape == (4, len(sample))
            bad += np.count_nonzero(~good)
            assert not b[:, ~good].any(), p
        assert bad or kind == "delta"

    def test_rows_are_prime_moments(self):
        fam = quadratic_family((100, 300))
        table = fam.moment_table(50, 3)
        assert table.primes.tolist() == sieve_primes(50).primes.tolist()
        assert table.log_p == pytest.approx(np.log(table.primes))
        for i, p in enumerate(table.primes.tolist()):
            mom = fam.prime_moments(p, 3)
            assert table.good[i] == mom.good_weight
            assert mom.total_weight == fam.size()
            assert table.sums[i].tolist() == mom.sums.tolist()

    def test_cutoff_below_two_is_empty(self):
        table = dirichlet_family(7).moment_table(1, 2)
        assert len(table.primes) == 0 and table.sums.shape == (0, 2)

    def test_good_above_total_rejected(self, monkeypatch):
        fam = dirichlet_family(7)
        monkeypatch.setattr(fam, "_rows", constant_rows(6, 0))
        with pytest.raises(ValueError, match="exceeds"):
            fam.moment_table(20, 2)

    def test_ramanujan_violation_rejected(self, monkeypatch):
        # a degree-1 family whose summed b(p) outgrows its good weight
        fam = dirichlet_family(7)
        monkeypatch.setattr(fam, "_rows", constant_rows(5, 5.5))
        with pytest.raises(ValueError, match="degree"):
            fam.moment_table(20, 2)

    @pytest.mark.parametrize("kind", list(ROW_COUNT_FAMILIES))
    def test_zero_columns_rejected(self, kind):
        with pytest.raises(ValueError, match="nu_max must be at least 1, got 0"):
            ROW_COUNT_FAMILIES[kind]().moment_table(50, 0)

    @pytest.mark.parametrize("kind", list(ROW_COUNT_FAMILIES))
    @pytest.mark.parametrize("p", [4, 1, 91])
    def test_composite_prime_rejected(self, kind, p):
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            ROW_COUNT_FAMILIES[kind]().prime_moments(p, 2)


def constant_rows(good, sums):
    """A ``_rows`` with the same good weight and sums at every prime."""

    def rows(primes, nu_max, factor_rows=()):
        n = len(primes)
        return (
            np.full(n, float(good)),
            np.full((n, nu_max), sums, dtype=np.complex128),
        )

    return rows


def assert_tables_equal(a, b):
    for field in ("primes", "log_p", "good", "sums"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.shape == y.shape, field
        assert np.array_equal(x, y), field


def self_convolution(fam):
    return convolve(fam, fam)


# y^2 = x^3 + 16Tx + 64 is the u = 2 rescaling of y^2 = x^3 + Tx + 1
EC1_SCALED = EllipticFamilySpec((0, 16), (64,), 2020, 2060)

DERIVED_FAMILIES = {
    "identity-self-convolution": lambda: self_convolution(
        quadratic_family((100, 300))
    ),
    "ec-isomorphism-pair": lambda: convolve(
        elliptic_family(EC1), elliptic_family(EC1_SCALED)
    ),
    "delta-x-delta": lambda: convolve(cusp_form_delta(), cusp_form_delta()),
    "nested": lambda: convolve(
        twist_by_fixed(kronecker_twist(5), elliptic_family(EC1)),
        dirichlet_family(7),
    ),
}


def count_quadratic_rows(monkeypatch):
    """The list to which every ``QuadraticFamily._rows`` call appends its
    primes."""
    calls = []
    rows = families.QuadraticFamily._rows

    def counted(self, primes, nu_max, factor_rows=()):
        calls.extend(primes.tolist())
        return rows(self, primes, nu_max, factor_rows)

    monkeypatch.setattr(families.QuadraticFamily, "_rows", counted)
    return calls


def family_subclasses(cls):
    return set(cls.__subclasses__()).union(
        *(family_subclasses(sub) for sub in cls.__subclasses__())
    )


class TestOneRowBuilder:
    @pytest.mark.parametrize(
        "kind", list(ROW_COUNT_FAMILIES) + list(DERIVED_FAMILIES)
    )
    def test_prime_moments_is_the_table_row(self, kind):
        build = {**ROW_COUNT_FAMILIES, **DERIVED_FAMILIES}[kind]
        table = build().moment_table(97, 4)
        fam = build()
        for i, p in enumerate(table.primes):  # numpy integers
            mom = fam.prime_moments(p, 4)
            assert (mom.p, mom.good_weight, mom.total_weight) == (
                p, table.good[i], fam.size()
            )
            assert mom.sums.tobytes() == table.sums[i].tobytes(), p

    @pytest.mark.parametrize(
        "kind", ["convolution", "twist"] + list(DERIVED_FAMILIES)
    )
    def test_convolution_rows_at_scattered_primes(self, kind):
        # a convolution reads its factors' rows at its own primes, so any
        # subset of them gives the table's rows
        build = {**ROW_COUNT_FAMILIES, **DERIVED_FAMILIES}[kind]
        table = build().moment_table(199, 4)
        pick = np.arange(1, len(table.primes), 3)
        rows = pass_rows(build(), table.primes[pick], 4)
        for got, want in zip(rows, (table.good, table.sums)):
            assert got.tobytes() == want[pick].tobytes()

    def test_only_the_base_defines_the_row_entry_points(self):
        for cls in family_subclasses(families.Family):
            assert "prime_moments" not in vars(cls), cls
            assert "moment_table" not in vars(cls), cls


class TestDerivedTables:
    @pytest.mark.parametrize("kind", list(DERIVED_FAMILIES))
    def test_table_equals_prime_moments_oracle(self, kind):
        fam = DERIVED_FAMILIES[kind]()
        if kind == "identity-self-convolution":
            members = list(fam.left.iter_members())
            assert fam.excluded == [(d, d) for d in members]
        if kind == "ec-isomorphism-pair":
            assert fam.excluded == [(t, t) for t in range(2020, 2040)]
        # the oracle is the member loop over every included pair; it sums
        # the pairs in another order, so the sums agree to rounding
        table = fam.moment_table(97, 6)
        primes = sieve_primes(97).primes
        good, sums = families.Family._rows(fam, primes, 6)
        assert np.array_equal(table.primes, primes)
        assert np.array_equal(table.log_p, np.log(primes.astype(float)))
        assert np.array_equal(table.good, good)
        assert fam.size() == len(list(fam.iter_members()))
        assert np.allclose(table.sums, sums, rtol=1e-12, atol=1e-9)

    def test_factor_rows_computed_once(self, monkeypatch):
        # the base family's rows serve itself and every family built on it
        calls = count_quadratic_rows(monkeypatch)
        q = quadratic_family((100, 300))
        derived = [q, twist_by_fixed(kronecker_twist(-4), q), convolve(q, q)]
        families.moment_tables({fam: 97 for fam in derived}, 4)
        assert calls == sieve_primes(97).primes.tolist()


class TestKeptTable:
    """No table is kept: a table does not depend on the requests before it,
    nor on concurrent ones."""

    @pytest.mark.parametrize("kind", ["dirichlet", "elliptic-linear", "twist"])
    @pytest.mark.parametrize("P, nu_max", [(97, 10), (200, 3), (60, 2)])
    def test_slice_equals_fresh_build(self, kind, P, nu_max):
        kept = ROW_COUNT_FAMILIES[kind]()
        kept.moment_table(200, 10)
        assert_tables_equal(
            kept.moment_table(P, nu_max),
            ROW_COUNT_FAMILIES[kind]().moment_table(P, nu_max),
        )

    def test_larger_request_replaces_kept_table(self):
        fam = quadratic_family((100, 300))
        fam.moment_table(100, 2)
        for P, nu_max in ((200, 2), (200, 6), (50, 6)):
            assert_tables_equal(
                fam.moment_table(P, nu_max),
                quadratic_family((100, 300)).moment_table(P, nu_max),
            )

    @pytest.mark.parametrize(
        "kind", list(ROW_COUNT_FAMILIES) + list(DERIVED_FAMILIES)
    )
    def test_table_grown_in_steps_equals_fresh_build(self, kind):
        build = {**ROW_COUNT_FAMILIES, **DERIVED_FAMILIES}[kind]
        grown = build()
        for P in (7, 8, 60, 199):
            grown.moment_table(P, 4)
        assert_tables_equal(grown.moment_table(199, 4), build().moment_table(199, 4))

    def test_tables_grown_from_several_threads_equal_fresh_builds(self):
        def derived_of(q):
            return [q, twist_by_fixed(kronecker_twist(-4), q), convolve(q, q)]

        derived = derived_of(quadratic_family((100, 300)))

        def work(i):
            for P in (20 + 7 * i, 120 + 11 * i, 300):
                derived[i % 3].moment_table(P, 4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for fam, fresh in zip(derived, derived_of(quadratic_family((100, 300)))):
            assert_tables_equal(fam.moment_table(300, 4), fresh.moment_table(300, 4))

    def test_lone_delta_lift_computes_tau_once(self, monkeypatch):
        # the lift reads its base's rows from the same pass, so tau is sized
        # once to the lift's cutoff instead of doubling prime by prime
        calls = []

        def counted(n_max):
            calls.append(n_max)
            return ramanujan_tau_table(n_max)

        monkeypatch.setattr(families, "ramanujan_tau_table", counted)
        cfg = ConstantConfig(phi=fejer_test_function(1.0), prime_cutoff=500, log_r=6.0)
        family_constant(sym_lift(cusp_form_delta(), 2), cfg)
        assert calls == [401]  # the last prime below R = e^6

    def test_tables_are_read_only(self):
        table = quadratic_family((100, 300)).moment_table(50, 2)
        with pytest.raises(ValueError):
            table.sums[0, 0] = 1.0


def pass_rows(fam, primes, nu_max):
    """fam's rows at the ascending primes, from a pass over them alone."""
    plan = families._plan({fam: int(primes.max(initial=0))}, nu_max)
    return families._pass_rows(plan, primes)[fam]


PASS_FAMILIES = {
    **ROW_COUNT_FAMILIES,
    **DERIVED_FAMILIES,
    "elliptic-sym3": lambda: sym_lift(elliptic_family(EC1), 3),
    "delta-sym4": lambda: sym_lift(cusp_form_delta(), 4),
}


class TestPass:
    @pytest.mark.parametrize("kind", list(PASS_FAMILIES))
    def test_rows_do_not_depend_on_the_split(self, kind):
        # what makes every table bit-identical for any threads: the rows of
        # the interleaved block primes[b::T] are the rows of all the primes
        # at those positions
        build = PASS_FAMILIES[kind]
        primes = sieve_primes(199).primes
        whole = pass_rows(build(), primes, 4)
        for T in (1, 2, 3):
            for b in range(T):
                part = pass_rows(build(), primes[b::T], 4)
                for got, want in zip(part, whole):
                    assert got.tobytes() == want[b::T].tobytes(), (T, b)

    @pytest.mark.parametrize("kind", list(PASS_FAMILIES))
    def test_threads_give_equal_tables(self, kind):
        fam = PASS_FAMILIES[kind]()
        one = families.moment_tables({fam: 199}, 4, 1)[fam]
        for threads in (2, 3):
            table = families.moment_tables({fam: 199}, 4, threads)[fam]
            assert_tables_equal(table, one)

    def test_many_threads_give_the_tables_of_one(self):
        # more threads than cores, switching often: the blocks share the
        # family objects and still give one thread's bits
        def requests():
            delta, ec = cusp_form_delta(), elliptic_family(EC1)
            derived = [sym_lift(delta, 3), sym_lift(ec, 2), convolve(delta, ec)]
            return {fam: 150 + 10 * i for i, fam in enumerate([delta, ec, *derived])}

        one = families.moment_tables(requests(), 4, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = families.moment_tables(requests(), 4, 8)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(one.values(), many.values()):
            assert_tables_equal(a, b)

    def test_one_pass_builds_each_quadratic_row_once(self, monkeypatch):
        # q, chi(-4) x q and q x q at three cutoffs: q's rows reach the
        # largest, once per prime however many blocks
        q = quadratic_family((100, 300))
        requests = {
            q: 50,
            twist_by_fixed(kronecker_twist(-4), q): 199,
            convolve(q, q): 97,
        }
        calls = count_quadratic_rows(monkeypatch)
        for threads in (1, 3):
            calls.clear()
            tables = families.moment_tables(requests, 4, threads)
            assert sorted(calls) == sieve_primes(199).primes.tolist()
            for fam, P in requests.items():
                assert tables[fam].primes.tolist() == sieve_primes(P).primes.tolist()

    @pytest.mark.parametrize(
        "build",
        [
            lambda q: convolve(q, quadratic_family((-300, -100))),
            lambda q: convolve(sym_lift(elliptic_family(EC1), 2), q),
        ],
        ids=["quadratic-pair", "lift-x-quadratic"],
    )
    def test_prime_moments_builds_only_row_p(self, build, monkeypatch):
        calls = count_quadratic_rows(monkeypatch)
        fam = build(quadratic_family((100, 300)))
        mom = fam.prime_moments(97, 4)
        assert calls.count(97) == len(calls) >= 1
        table = build(quadratic_family((100, 300))).moment_table(97, 4)
        assert mom.sums.tobytes() == table.sums[-1].tobytes()

    @pytest.mark.parametrize(
        "power, base",
        [(2, lambda: elliptic_family(EC1)), (3, lambda: elliptic_family(EC1)),
         (5, cusp_form_delta), (4, cusp_form_delta)],
        ids=["elliptic-sym2", "elliptic-sym3", "delta-sym5", "delta-sym4"],
    )
    def test_lift_columns_keep_their_bits_for_any_nu_max(self, power, base):
        widest = sym_lift(base(), power).moment_table(199, 8)
        for nu_max in range(1, 8):
            table = sym_lift(base(), power).moment_table(199, nu_max)
            assert table.sums.tobytes() == widest.sums[:, :nu_max].copy().tobytes()
            assert table.good.tobytes() == widest.good.tobytes()


def elliptic_trio():
    """Two linear families and the rank-2 family, which takes the twist path,
    with the cutoffs of a pass over them."""
    fams = [
        elliptic_family(EC1),
        elliptic_family(EC2),
        elliptic_family(EllipticFamilySpec((0, 0, -1), (0, 0, 1), 10, 50)),
    ]
    return {f: 199 - 40 * i for i, f in enumerate(fams)}


class TestJointEllipticRows:
    """The elliptic families of a pass build their rows together, prime by
    prime, from one context per prime."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_context_per_prime(self, k, monkeypatch):
        # one primitive-root table, one transform of chi and one stacked
        # transform of the families' rows per prime, for any k
        powers, forward, inverse = [], [], []

        def counted(calls, fn):
            def wrapper(*args, **kwargs):
                calls.append(args[0])
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            ecgeom, "primitive_root_powers", counted(powers, ecgeom.primitive_root_powers)
        )
        monkeypatch.setattr(np.fft, "rfft", counted(forward, np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", counted(inverse, np.fft.irfft))
        requests = dict(list(elliptic_trio().items())[:k])
        families.moment_tables(requests, 4)
        primes = sieve_primes(199).primes[2:].tolist()
        assert powers == primes
        assert len(inverse) == len(primes)
        assert [x.ndim for x in forward] == [1, 2] * len(primes)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_joint_rows_equal_each_family_alone(self, threads):
        requests = elliptic_trio()
        tables = families.moment_tables(requests, 4, threads)
        for f, P in requests.items():
            alone = families.moment_tables({f: P}, 4)[f]
            assert_tables_equal(tables[f], alone)
            good, sums = f._rows(alone.primes, 4)
            assert good.tobytes() == alone.good.tobytes()
            assert sums.tobytes() == alone.sums.tobytes()
            # and the member loop, the reference of every faster row
            good, sums = families.Family._rows(f, alone.primes, 4)
            assert np.array_equal(good, alone.good)
            assert np.allclose(sums, alone.sums, rtol=1e-12, atol=1e-9)

    def test_a_pass_leaves_every_family_unchanged(self):
        fams = [build() for build in PASS_FAMILIES.values()] + list(elliptic_trio())
        before = [dict(vars(f)) for f in fams]
        families.moment_tables({f: 150 for f in fams}, 4, 2)
        for f, attrs in zip(fams, before):
            assert vars(f).keys() == attrs.keys(), f
            assert all(vars(f)[name] is value for name, value in attrs.items()), f

    def test_a_failing_table_names_its_family(self, monkeypatch):
        # EC2's correlation (b0 = 2) lands 0.3 off the integers wherever
        # chi(t) != 0; EC1's stays exact in the same stack
        correlation = ecgeom._correlation_row

        def off(key, context):
            fixed, h = correlation(key, context)
            return fixed, h + 0.3 * (np.arange(context.p) == 0) * (key[2] == 2)

        monkeypatch.setattr(ecgeom, "_correlation_row", off)
        ec1, ec2 = elliptic_family(EC1), elliptic_family(EC2)
        with pytest.raises(families.FamilyError, match="off integers") as info:
            families.moment_tables({ec1: 50, ec2: 50}, 2)
        assert info.value.family is ec2


class TestDirichletOnDemand:
    @pytest.mark.parametrize("m", [7, 13])
    def test_members_match_characters_mod(self, m):
        chars = characters_mod(m)
        fam = dirichlet_family(m)
        members = list(fam.iter_members())
        assert members == list(range(m - 2))
        primes = np.array([2, 3, 5, m, 29, 53])
        for p, (good, b) in zip(primes.tolist(), fam._member_bs(members, primes, 4)):
            assert good.tolist() == [p != m] * len(members)
            for k in members:
                # bit for bit: a complex-division phase moves the last bit
                want = np.array([chars[k + 1].power_value(p, nu) for nu in range(1, 5)])
                assert b[:, k].tobytes() == want.tobytes(), (k, p)

    def test_character_twist_matches_characters_mod(self):
        char = character_twist(2003, 5).char
        ref = characters_mod(2003)[5]
        assert (char.index, char.order) == (ref.index, ref.order)
        assert np.array_equal(char.value_index, ref.value_index)
        assert np.array_equal(char.values, ref.values)

    @pytest.mark.parametrize(
        "build",
        [lambda: character_twist(2003, 5), lambda: dirichlet_family(2003)],
        ids=["character_twist", "dirichlet_family"],
    )
    def test_builds_no_character_tables(self, build):
        # all 2002 tables would take about 90 MB
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
