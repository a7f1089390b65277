import functools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfsym import arith, ecgeom
from lfsym.arith import factorize, sieve_primes
from lfsym.ecgeom import (
    EllipticFamilySpec,
    PrimeContext,
    affine_point_count,
    ap_residue_table,
    ap_residue_tables,
    avg_log_conductor,
    conductor_proxy,
    invariants,
    michel_moment,
    minimal_model,
    nagao_sum,
    residue_moments,
    rs_conductor_bounds,
    trace_of_frobenius,
)

# the three one-parameter families used throughout
SPEC_T1 = lambda lo, hi: EllipticFamilySpec((0, 1), (1,), lo, hi)  # x^3+Tx+1
SPEC_T2 = lambda lo, hi: EllipticFamilySpec((0, 1), (2,), lo, hi)  # x^3+Tx+2
SPEC_TT = lambda lo, hi: EllipticFamilySpec((0, 1), (0, -1), lo, hi)  # x^3+Tx-T
SPEC_T0 = lambda lo, hi: EllipticFamilySpec((0, 1), (0,), lo, hi)  # x^3+Tx
# degree 2, as in the wide-box benchmark: x^3+Tx+T^2+1
SPEC_QUAD = lambda lo, hi: EllipticFamilySpec((0, 1), (1, 0, 1), lo, hi)


class TestInvariants:
    def test_basic(self):
        inv = invariants(1, 1)
        assert inv.Delta == -496
        assert inv.c4 == -48 and inv.c6 == -864

    def test_j_zero(self):
        inv = invariants(0, 1)
        assert inv.Delta == -432
        assert inv.j == 0

    def test_j_1728(self):
        inv = invariants(-1, 0)
        assert inv.Delta == 64
        assert inv.j == 1728

    def test_singular(self):
        assert invariants(0, 0).singular
        assert invariants(0, 0).j is None
        assert invariants(-3, 2).singular  # 4*(-27) + 27*4 = 0

    def test_j_exact_rational(self):
        inv = invariants(2, 3)
        assert inv.j == Fraction(6912 * 8, 4 * 8 + 27 * 9)


class TestConductorProxy:
    def test_496_example(self):
        # Delta = -496 = -16 * 31; 31 does not divide c4 = -48
        assert conductor_proxy(1, 1) == 2**8 * 31

    def test_good_primes_absent(self):
        proxy = conductor_proxy(1, 1)
        inv = invariants(1, 1)
        for p in (5, 7, 11, 13):
            assert inv.Delta % p != 0
            assert proxy % p != 0

    def test_minimalization_invariance(self):
        for p in (5, 7):
            assert conductor_proxy(2 * p**4, 3 * p**6) == conductor_proxy(2, 3)

    def test_additive_prime_squares(self):
        # y^2 = x^3 + 25x: Delta = -16*4*5^6, c4 = -48*25: 5 | c4 -> exponent 2
        proxy = conductor_proxy(25, 0)
        assert proxy % 25 == 0 and proxy % 125 != 0

    def test_singular_error(self):
        with pytest.raises(ValueError):
            conductor_proxy(0, 0)

    def test_minimalization_candidates_from_gcd(self):
        def old_rule(A, B):
            # candidates from factoring A, or B when A == 0
            if A == 0 and B == 0:
                return A, B
            if A == 0:
                cands = [p for p, e in factorize(B).items() if e >= 6]
            elif B == 0:
                cands = [p for p, e in factorize(A).items() if e >= 4]
            else:
                cands = [
                    p for p, e in factorize(A).items() if e >= 4 and B % p**6 == 0
                ]
            for p in cands:
                while A % p**4 == 0 and B % p**6 == 0:
                    A //= p**4
                    B //= p**6
            return A, B

        values = {0, 1, -1, 2, 3, -7, 12, 16, 81, 625, 2401, 14641}
        for p in (2, 3, 5, 7, 11):
            values |= {p**4, -(p**4), 2 * p**4, p**6, -3 * p**6, p**8, p**12, 6 * p**12}
        values.add(5**4 * 7**6)
        values.add(5**6 * 7**4)
        values.add(2**6 * 3**4)
        for A in sorted(values):
            for B in sorted(values):
                assert minimal_model(A, B) == old_rule(A, B), (A, B)

    def test_no_factoring_for_small_gcd(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ecgeom, "factorize", lambda n: calls.append(n) or {})
        assert minimal_model(2000, 1) == (2000, 1)
        assert minimal_model(5**4, 2) == (5**4, 2)
        assert minimal_model(0, 15) == (0, 15)
        assert calls == []

    def test_minimalized_at_every_prime(self):
        # 81 = 3^4, 729 = 3^6: the model is (1, 1) rescaled by u = 3
        assert conductor_proxy(81, 729) == conductor_proxy(1, 1)
        # j = 0: every power of 5^6 divides out, not just the first
        assert conductor_proxy(0, 2 * 5**12) == conductor_proxy(0, 2)

    @settings(max_examples=200, deadline=None)
    @given(
        A=st.integers(-10**6, 10**6),
        B=st.integers(-10**6, 10**6),
        a=st.sampled_from([2, 3, 5, 6, 25]),
        zero=st.sampled_from([None, "A", "B"]),
    )
    def test_proxy_and_model_are_isomorphism_invariants(self, A, B, a, zero):
        if zero == "A":
            A = 0
        elif zero == "B":
            B = 0
        if 4 * A**3 + 27 * B**2 == 0:
            return
        scaled = (A * a**4, B * a**6)
        assert minimal_model(*scaled) == minimal_model(A, B)
        assert conductor_proxy(*scaled) == conductor_proxy(A, B)


class TestRSBounds:
    def test_coprime(self):
        lo, hi = rs_conductor_bounds(11, 37)
        assert lo == hi == (11 * 37) ** 2

    def test_equal(self):
        # gcd C: (C*C)^2/C^4 = 1 and (C*C)^2/C = C^3
        C = 12
        assert rs_conductor_bounds(C, C) == (1, C**3)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=200)
    def test_sandwich(self, c1, c2):
        lo, hi = rs_conductor_bounds(c1, c2)
        assert lo <= hi
        if math.gcd(c1, c2) == 1:
            assert lo == hi


class TestPointCounting:
    def test_a5_example(self):
        # exhaustive character sum over x = 0..4 gives -3
        assert trace_of_frobenius(1, 1, 5) == -3

    def test_against_affine_count(self):
        for p in [int(q) for q in sieve_primes(50).primes if q >= 5]:
            for A, B in [(1, 1), (2, 3), (-1, 4), (0, 7)]:
                a = trace_of_frobenius(A, B, p)
                assert affine_point_count(A, B, p) + 1 == p + 1 - a

    def test_family_members_against_affine_count(self):
        # fiber-by-fiber: character-sum trace == p + 1 - #E(F_p), exactly
        spec = SPEC_T1(12, 18)
        for p in [int(q) for q in sieve_primes(50).primes if q >= 5]:
            table = ap_residue_table(spec, p)
            for t in spec.t_range:
                A, B = spec.A(t), spec.B(t)
                points = affine_point_count(A % p, B % p, p) + 1
                assert table[t % p] == p + 1 - points

    def test_hasse_bound(self):
        for p in [int(q) for q in sieve_primes(200).primes if q >= 5]:
            table = ap_residue_table(SPEC_T1(0, 1), p)
            assert np.all(np.abs(table) <= 2 * math.sqrt(p))

    def test_residue_table_matches_scalar(self):
        spec = SPEC_T1(0, 1)
        for p in (5, 13, 29):
            table = ap_residue_table(spec, p)
            for r in range(p):
                assert table[r] == trace_of_frobenius(r, 1, p)


# linear specs: the two of the paper's example, a1 = 0 with b1 != 0, a
# constant curve, b1 = 0, negative coefficients, and coefficients that all
# vanish mod 5, 7 and 11 (1155 = 3 5 7 11); those with a1 = 0 mod p take the
# twist path
LINEAR_SPECS = [
    SPEC_T1(0, 1),
    SPEC_T2(0, 1),
    EllipticFamilySpec((2,), (1, 3), 0, 1),
    EllipticFamilySpec((-1,), (5,), 0, 1),
    SPEC_T0(0, 1),
    EllipticFamilySpec((-3, -5), (-7, -2), 0, 1),
    EllipticFamilySpec((1155, 2310), (-3465, 1155), 0, 1),
]
# the rank-2 family x^3 - T^2 x + T^2 (A = B = 0 at t = 0), j = 1728
# (B = 0) and j = 0 (A = 0) families, and degrees 2 to 4
SPEC_R2 = EllipticFamilySpec((0, 0, -1), (0, 0, 1), 0, 1)
SPEC_J1728 = EllipticFamilySpec((1, 0, 1), (0,), 0, 1)
SPEC_J0 = EllipticFamilySpec((0,), (1, 1, 1), 0, 1)
TWIST_SPECS = [
    SPEC_R2,
    SPEC_J1728,
    SPEC_J0,
    SPEC_QUAD(0, 1),
    EllipticFamilySpec((1, 2, 3), (4, 5, 6, 7), 0, 1),
    EllipticFamilySpec((0, 0, 0, 0, 1), (1, 2, 0, 0, 1), 0, 1),
]
ORACLE_PRIMES = [int(q) for q in sieve_primes(600).primes if q >= 5] + [1999]


def grid_table(spec, p):
    """a_t(p) for every t mod p from the whole (t, x) character-sum grid,
    O(p^2): the exact oracle of both table paths."""
    chi = np.array(legendre(p))
    x = np.arange(p, dtype=np.int64)
    A = np.array([spec.A(t) % p for t in range(p)], dtype=np.int64)[:, None]
    B = np.array([spec.B(t) % p for t in range(p)], dtype=np.int64)[:, None]
    return -chi[(x**3 + A * x + B) % p].sum(axis=1)


class TestCorrelationTable:
    @pytest.mark.parametrize("spec", LINEAR_SPECS + TWIST_SPECS)
    def test_matches_grid(self, spec):
        for p in ORACLE_PRIMES:
            table = ap_residue_table(spec, p)
            assert table.dtype == np.int64
            assert np.array_equal(table, grid_table(spec, p)), p

    @pytest.mark.parametrize("p", [9967, 9973, 10007])
    def test_rows_match_trace_of_frobenius(self, p):
        rng = np.random.default_rng(p)
        for spec in LINEAR_SPECS[:2] + [SPEC_R2, SPEC_J1728, SPEC_J0]:
            table = ap_residue_table(spec, p)
            for t in rng.integers(0, p, size=12):
                t = int(t)
                assert table[t] == trace_of_frobenius(spec.A(t), spec.B(t), p)

    @pytest.mark.parametrize("p", [11, 1999])
    def test_numpy_integer_prime(self, p):
        # the linear path (x^3 + Tx + 1) and the twist path (x^3 - T^2 x + T^2)
        # read a numpy integer as the Python int it holds
        assert arith.is_prime(np.int64(p)) == arith.is_prime(p)
        for spec in (SPEC_T1(0, 1), SPEC_R2):
            want = ap_residue_table(spec, p)
            assert np.array_equal(ap_residue_table(spec, np.int64(p)), want)

    def test_off_integer_result_rejected(self, monkeypatch):
        monkeypatch.setattr(np.fft, "irfft", lambda x, n: np.full((len(x), n), 0.2))
        with pytest.raises(ValueError, match="off integers"):
            ap_residue_table(SPEC_T1(0, 1), 7)

    def test_hasse_violation_rejected(self, monkeypatch):
        monkeypatch.setattr(np.fft, "irfft", lambda x, n: np.full((len(x), n), 50.0))
        with pytest.raises(ValueError, match="Hasse"):
            ap_residue_table(SPEC_T1(0, 1), 7)

    def test_one_correlation_per_table(self, monkeypatch):
        # a linear spec with a1 != 0 mod p correlates its own coefficients;
        # every other spec reads the correlation at A = B = T; the tables of
        # several specs at p build each distinct correlation once
        calls = []
        correlation = ecgeom._correlation_row

        def counted(key, context):
            calls.append((*key, context.p))
            return correlation(key, context)

        monkeypatch.setattr(ecgeom, "_correlation_row", counted)
        specs = LINEAR_SPECS + TWIST_SPECS
        for p in (5, 7, 11, 101):
            wanted = []
            for spec in specs:
                a0, a1 = (spec.a_coeffs + (0, 0))[:2]
                b0, b1 = (spec.b_coeffs + (0, 0))[:2]
                linear = len(spec.a_coeffs) == 2 and len(spec.b_coeffs) <= 2
                own = linear and a1 % p != 0
                expected = (a0, a1, b0, b1, p) if own else (0, 1, 0, 1, p)
                calls.clear()
                ap_residue_table(spec, p)
                assert calls == [expected], (spec, p)
                wanted.append(expected)
            calls.clear()
            list(ap_residue_tables(specs, PrimeContext(p)))
            assert calls == list(dict.fromkeys(wanted)), p

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ap_residue_table(EllipticFamilySpec((0, 0, 1), (1,), 0, 1), 9),
            lambda: ap_residue_table(SPEC_T1(0, 1), 9),
            lambda: trace_of_frobenius(1, 1, 9),
            lambda: michel_moment(SPEC_T1(0, 1), 15),
            lambda: residue_moments(SPEC_T1(0, 1), [25]),
        ],
        ids=["degree-2-table", "linear-table", "trace", "michel", "moments"],
    )
    def test_composite_p_rejected(self, call):
        with pytest.raises(ValueError, match=r"p = \d+ is not a prime >= 5"):
            call()


# one of each table path: linear with a1 != 0 mod p, a1 = 0 mod p at a few
# primes (2310 = 2 3 5 7 11, 96577 = 13 17 19 23), the twist path, A = B = T
# (whose correlation every twist-path table reads), the rank-2 family and a
# spec given twice
JOINT_SPECS = [
    SPEC_T1(0, 1),
    SPEC_T2(0, 1),
    EllipticFamilySpec((1155, 2310), (-3465, 1155), 0, 1),
    EllipticFamilySpec((3, 96577), (1, 2), 0, 1),
    SPEC_QUAD(0, 1),
    EllipticFamilySpec((0, 1), (0, 1), 0, 1),
    SPEC_R2,
    SPEC_T1(5, 9),
]


class TestJointTables:
    def test_joint_tables_equal_single_tables(self):
        for p in sieve_primes(5000).primes[2:].tolist():
            joint = list(ap_residue_tables(JOINT_SPECS, PrimeContext(p)))
            assert len(joint) == len(JOINT_SPECS)
            for spec, table in zip(JOINT_SPECS, joint):
                assert table.dtype == np.int64
                assert np.array_equal(table, ap_residue_table(spec, p)), (spec, p)
                if p < 200:
                    assert np.array_equal(table, grid_table(spec, p)), (spec, p)

    def test_fft_length_is_the_least_5_smooth_length_of_2p(self):
        # a scan of every n: n is 5-smooth when dividing out 2, 3 and 5
        # leaves 1
        n = np.arange(2 * 10**5 + 2**12)
        rest = n.copy()
        for q in (2, 3, 5):
            for _ in range(int(n[-1]).bit_length()):
                rest = np.where(rest % q == 0, rest // q, rest)
        smooth = np.flatnonzero(rest == 1)
        primes = sieve_primes(10**5).primes
        want = smooth[np.searchsorted(smooth, 2 * primes)]
        assert [ecgeom._fft_length(p) for p in primes.tolist()] == want.tolist()
        assert ecgeom._fft_length(5) == 10
        assert PrimeContext(5).n == 10

    def test_PrimeContext(self):
        ctx = PrimeContext(np.int64(11))
        assert ctx.p == 11 and type(ctx.p) is int
        assert ctx.chi.tolist() == legendre(11)
        assert ctx.r.tolist() == list(range(11))
        assert sorted(ctx.pw.tolist()) == list(range(1, 11))
        assert np.allclose(ctx.chi_hat, np.fft.rfft(ctx.chi, ctx.n))
        with pytest.raises(ValueError, match=r"p = 9 is not a prime >= 5"):
            PrimeContext(9)


def linear_identity_sum(spec, p):
    """sum_{t mod p} a_t(p) of a family of degree <= 1 in T, in O(p): over a
    complete residue system the correlation term of the table's identity
    vanishes (chi sums to 0), leaving -p sum_{F1(x)=0} chi(F0(x))."""
    a0, a1 = (tuple(spec.a_coeffs) + (0, 0))[:2]
    b0, b1 = (tuple(spec.b_coeffs) + (0, 0))[:2]
    chi = legendre(p)
    return -p * sum(
        chi[(x**3 + a0 * x + b0) % p] for x in range(p) if (a1 * x + b1) % p == 0
    )


def legendre(p):
    return [0] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1 for x in range(1, p)]


class TestResidueMoments:
    PRIMES = [int(q) for q in sieve_primes(60).primes if q >= 5]

    def test_linear_identity_matches_table(self):
        for spec in (SPEC_T1(0, 1), SPEC_T2(0, 1), SPEC_TT(0, 1), SPEC_T0(0, 1)):
            for p in self.PRIMES:
                assert linear_identity_sum(spec, p) == int(
                    ap_residue_table(spec, p).sum()
                ), (spec, p)

    def test_sums_match_table(self):
        # a linear and a degree-2 family: the correlation and twist paths
        for spec in (SPEC_T1(0, 1), SPEC_QUAD(0, 1)):
            first, second = residue_moments(spec, self.PRIMES)
            assert first.dtype == second.dtype == np.int64
            for p, s1, s2 in zip(self.PRIMES, first, second):
                a = [int(v) for v in ap_residue_table(spec, p)]
                assert (s1, s2) == (sum(a), sum(v * v for v in a)), p

    def test_pure_torsion_family_vanishes(self):
        # y^2 = x^3 + Tx: the x = 0 term contributes chi(0) = 0, all other
        # x-columns cancel over a complete residue system
        primes = [int(q) for q in sieve_primes(50).primes if q >= 5]
        first, _ = residue_moments(SPEC_T0(0, 1), primes)
        assert first.tolist() == [0] * len(primes)

    def test_small_prime_rejected(self):
        with pytest.raises(ValueError):
            residue_moments(SPEC_T1(0, 1), [5, 3])


class TestNagao:
    def test_rank_one_section(self):
        # y^2 = x^3 + Tx - T carries the section (1, 1)
        assert nagao_sum(SPEC_TT(0, 1), 500) == pytest.approx(1.0, abs=0.3)

    def test_rank_zero_generic(self):
        assert nagao_sum(SPEC_T2(0, 1), 500) == pytest.approx(0.0, abs=0.3)

    def test_exact_zero_family(self):
        for X in (50, 150, 400):
            assert nagao_sum(SPEC_T0(0, 1), X) == 0.0

    def test_hidden_section_family(self):
        # y^2 = x^3 + Tx + 1 has the everywhere section (0, 1): rank 1
        assert nagao_sum(SPEC_T1(0, 1), 500) == pytest.approx(1.0, abs=0.3)

    def test_small_cutoff_rejected(self):
        with pytest.raises(ValueError):
            nagao_sum(SPEC_T1(0, 1), 7)


class TestMichel:
    def test_small_prime_by_enumeration(self):
        # 25 curve-point sums at p = 5, done without the table machinery
        spec = SPEC_T1(0, 1)
        expected = sum(trace_of_frobenius(t, 1, 5) ** 2 for t in range(5))
        assert michel_moment(spec, 5) == expected

    def test_nonnegative_integer(self):
        val = michel_moment(SPEC_T1(0, 1), 11)
        assert isinstance(val, int) and val >= 0

    def test_second_moment_bound(self):
        spec = SPEC_T1(0, 1)
        for p in [int(q) for q in sieve_primes(97).primes if q >= 5]:
            assert abs(michel_moment(spec, p) - p * p) <= 4 * p**1.5

    def test_constant_j_rejected(self):
        with pytest.raises(ValueError):
            michel_moment(SPEC_T0(0, 1), 7)


def brute_avg_log_conductor(F, G):
    cf = [conductor_proxy(F.A(t), F.B(t)) for t in F.t_range if F.discriminant(t)]
    cg = [conductor_proxy(G.A(s), G.B(s)) for s in G.t_range if G.discriminant(s)]
    base = 2.0 * (
        sum(math.log(c) for c in cf) / len(cf) + sum(math.log(c) for c in cg) / len(cg)
    )
    gcd_sum = sum(math.log(math.gcd(c1, c2)) for c1 in cf for c2 in cg)
    return base - 2.5 * gcd_sum / (len(cf) * len(cg))


@functools.lru_cache(maxsize=None)
def reference_conductors(spec):
    """Conductor proxies and prime-power counts of a family from the full
    factorization of every fiber's minimal discriminant."""
    proxies, prime_powers = [], {}
    for t in spec.t_range:
        if spec.discriminant(t) == 0:
            continue
        A, B = minimal_model(spec.A(t), spec.B(t))
        exponents = {
            p: 8 if p == 2 else 5 if p == 3 else 1 if 48 * A % p else 2
            for p in factorize(-16 * (4 * A**3 + 27 * B**2))
        }
        proxies.append(math.prod(p**e for p, e in exponents.items()))
        for p, e in exponents.items():
            counts = prime_powers.setdefault(p, [])
            counts.extend([0] * (e - len(counts)))
            for k in range(e):
                counts[k] += 1
    return proxies, prime_powers


def reference_pair_log_conductor(F, G):
    """avg_pair_log_conductor from the full factorization of every fiber's
    minimal discriminant, summed in the same order."""
    cf, nf = reference_conductors(F)
    cg, ng = reference_conductors(G)
    base = 2.0 * (
        np.mean([math.log(c) for c in cf]) + np.mean([math.log(c) for c in cg])
    )
    shared = sorted(p for p in nf if p in ng)
    gcd_sum = sum(
        math.log(p) * sum(a * b for a, b in zip(nf[p], ng[p])) for p in shared
    )
    return float(base - 2.5 * gcd_sum / (len(cf) * len(cg)))


class TestConductorBlocks:
    def test_pass_tests_and_splits_no_cofactor_below_1e12(self, monkeypatch):
        # the cofactors of x^3 + Tx + 1 near t = 2000 lie below 2.8e11
        seen = []

        def counted(fn):
            def wrapper(n):
                seen.append(n)
                return fn(n)

            return wrapper

        monkeypatch.setattr(arith, "is_prime", counted(arith.is_prime))
        monkeypatch.setattr(arith, "_split", counted(arith._split))
        fc = ecgeom.family_conductors(ecgeom.fiber_models(SPEC_T1(2000, 2100)))
        assert fc.blocks
        assert [n for n in seen if n < 10**12] == []

    def test_prime_square_cofactor(self, monkeypatch):
        # Delta = -432 * 10007^2 leaves the cofactor 10007^2 in [10^8, 10^12),
        # which isqrt recognizes; 10007 divides c4 = 0, so it is additive
        def refuse(n):
            raise AssertionError(f"{n} reached is_prime or rho")

        monkeypatch.setattr(arith, "is_prime", refuse)
        monkeypatch.setattr(arith, "_split", refuse)
        assert invariants(0, 10007).Delta == -432 * 10007**2
        assert conductor_proxy(0, 10007) == 2**8 * 3**5 * 10007**2

    def test_blocks_are_squarefree_cofactors(self):
        # every curve of the box is minimal, so its cofactor is that of
        # Delta with the primes below 10^4 divided out
        spec = SPEC_T1(2000, 2100)
        small = [int(p) for p in sieve_primes(10**4).primes]
        cofactors = []
        for t in spec.t_range:
            m = abs(spec.discriminant(t))
            for p in small:
                while m % p == 0:
                    m //= p
            cofactors.append(m)
        fc = ecgeom.family_conductors(ecgeom.fiber_models(spec))
        assert fc.blocks == Counter(
            m for m in cofactors if 10**8 <= m < 10**12 and math.isqrt(m) ** 2 != m
        )
        for block in fc.blocks:
            f = factorize(block)
            assert set(f.values()) == {1} and min(f) > 10**4

    @pytest.mark.parametrize(
        "F, G",
        [
            # identical blocks on both sides
            (SPEC_T1(2000, 2060), SPEC_T1(2000, 2060)),
            (SPEC_T1(2000, 2060), SPEC_T2(2030, 2090)),
            # the block 12391 * 2637133 of t = 2014 against the prime 12391,
            # which divides t = 14405 = 2014 + 12391 with a cofactor above
            # 10^12, so it is split there
            (SPEC_T1(2000, 2060), SPEC_T1(14400, 14410)),
        ],
    )
    def test_pair_average_equals_full_factorization(self, F, G):
        assert avg_log_conductor(F, G) == reference_pair_log_conductor(F, G)
        assert avg_log_conductor(G, F) == reference_pair_log_conductor(G, F)

    def test_degree_two_box_splits_nothing_below_2_63_but_stage_two_gcds(
        self, monkeypatch
    ):
        # most cofactors of x^3 + Tx + T^2 + 1 near t = 2e4 lie above 10^12;
        # below 2^63 rho only splits second-stage gcds, whose primes lie in
        # (10^4, 2^21) (four fibers of this box hold two or three of them)
        seen = []
        split = arith._split

        def counted(n):
            seen.append(n)
            return split(n)

        monkeypatch.setattr(arith, "_split", counted)
        spec = SPEC_QUAD(20000, 20100)
        fc = ecgeom.family_conductors(ecgeom.fiber_models(spec))
        monkeypatch.undo()
        small = [n for n in seen if n < 2**63]
        assert small
        for n in small:
            assert all(10**4 < p < 2**21 for p in factorize(n))
        assert list(fc.proxies.values()) == reference_conductors(spec)[0]
        assert any(b >= 2**42 for b in fc.blocks)

    @pytest.mark.parametrize(
        "F, G",
        [
            (SPEC_T1(20000, 20100), SPEC_QUAD(20000, 20100)),
            (SPEC_QUAD(20000, 20100), SPEC_QUAD(20000, 20100)),
        ],
    )
    def test_degree_two_pair_average_equals_full_factorization(self, F, G):
        assert avg_log_conductor(F, G) == reference_pair_log_conductor(F, G)
        assert avg_log_conductor(G, F) == reference_pair_log_conductor(G, F)

    @pytest.fixture
    def stage_counts(self, monkeypatch):
        # the number of values of each _stage_gcds call, stage by stage
        counts = []
        stage_gcds = arith._stage_gcds

        def counted(values, chunks):
            counts.append(len(values))
            return stage_gcds(values, chunks)

        monkeypatch.setattr(arith, "_stage_gcds", counted)
        return counts

    def test_stage_two_left_unbuilt_below_1e12(self):
        # no cofactor of this box reaches 10^12, so no sieve band's chunk
        # products are built
        arith._sieve_chunks.cache_clear()
        assert ecgeom.family_conductors(ecgeom.fiber_models(SPEC_T1(2000, 2100))).blocks
        assert arith._sieve_chunks.cache_info().currsize == 0

    def test_linear_box_builds_the_first_band_alone(self, stage_counts):
        # some cofactors of x^3 + Tx + 1 near t = 2e4 reach 10^12, and the
        # first sieve band settles every one of them
        arith._sieve_chunks.cache_clear()
        spec = SPEC_T1(20000, 20100)
        fc = ecgeom.family_conductors(ecgeom.fiber_models(spec))
        assert stage_counts[1] > 0 and not any(stage_counts[2:])
        assert arith._sieve_chunks.cache_info().currsize == 1
        arith._sieve_chunks(0)
        assert arith._sieve_chunks.cache_info().currsize == 1
        assert list(fc.proxies.values()) == reference_conductors(spec)[0]

    def test_remainder_trees_shrink_band_by_band(self, stage_counts):
        # the cofactors of a degree-2 box leave the remainder trees at the
        # first band that settles them, so the last band holds fewer than
        # the first
        spec = SPEC_QUAD(20000, 20100)
        fc = ecgeom.family_conductors(ecgeom.fiber_models(spec))
        bands = stage_counts[1:]
        assert bands == sorted(bands, reverse=True)
        assert 0 < bands[-1] < bands[0]
        assert list(fc.proxies.values()) == reference_conductors(spec)[0]

    def test_block_meets_prime_key(self):
        F = ecgeom.family_conductors(ecgeom.fiber_models(SPEC_T1(2000, 2060)))
        G = ecgeom.family_conductors(ecgeom.fiber_models(SPEC_T1(14400, 14410)))
        assert F.blocks[12391 * 2637133] == 1 and 12391 in G.prime_powers
        assert 12391 not in F.prime_powers
        splits = {}
        counts = ecgeom._split_met_blocks(F, G, splits)
        assert counts[12391] == counts[2637133] == [1]
        assert splits == {12391 * 2637133: (12391, 2637133)}
        assert 12391 not in F.prime_powers


def synthetic_pass(A, factors):
    """The conductor pass over one synthetic discriminant prod p^e of the
    given factors, and the exponents that its factorization gives."""
    delta = math.prod(p**e for p, e in factors.items())
    [(_, primes, block)] = arith._factor_batch([delta])
    exponents = ecgeom._proxy_exponents(A, primes)
    full = {
        p: 8 if p == 2 else 5 if p == 3 else 1 if 48 * A % p else 2 for p in factors
    }
    return exponents, block, full


class TestSecondStage:
    # a prime in (10^4, 2^21), and primes above 2^21
    P = 100003
    Q = (3000017, 3000029, 3000047)

    @pytest.fixture
    def no_rho(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"{n} reached rho")

        monkeypatch.setattr(arith, "_split", refuse)

    def test_square_of_sieved_prime_is_not_a_block(self, no_rho):
        # m = P^2 * 100000007 is a non-square in [2^42, 2^63); only a
        # sieve band tells it from a squarefree block of two primes
        m = self.P**2 * 100000007
        assert 2**42 <= m < 2**63 and math.isqrt(m) ** 2 != m
        factors = {2: 4, self.P: 2, 100000007: 1}
        exponents, block, full = synthetic_pass(1, factors)
        assert block == 1 and exponents == full == {2: 8, self.P: 1, 100000007: 1}
        # additive at P when P divides c4
        exponents, block, full = synthetic_pass(self.P, factors)
        assert block == 1 and exponents == full and exponents[self.P] == 2

    def test_prime_square_above_sieve_bound(self, no_rho):
        q = self.Q[0]
        exponents, block, full = synthetic_pass(1, {2: 4, 3: 1, q: 2})
        assert block == 1 and exponents == full == {2: 8, 3: 5, q: 1}

    def test_block_above_sieve_bound(self, no_rho):
        q1, q2 = self.Q[:2]
        exponents, block, full = synthetic_pass(1, {2: 4, self.P: 1, q1: 1, q2: 1})
        assert block == q1 * q2
        assert exponents == {2: 8, self.P: 1}
        assert full == {**exponents, q1: 1, q2: 1}

    def test_cofactor_above_2_63_is_factored(self, monkeypatch):
        seen = []
        factor = arith.factorize

        def counted(n):
            seen.append(n)
            return factor(n)

        monkeypatch.setattr(arith, "factorize", counted)
        rest = math.prod(self.Q)
        assert rest >= 2**63
        factors = {2: 4, self.P: 3, **{q: 1 for q in self.Q}}
        exponents, block, full = synthetic_pass(1, factors)
        assert rest in seen
        assert block == 1 and exponents == full
        assert set(exponents) == {2, self.P, *self.Q}


class TestAvgLogConductor:
    @pytest.mark.parametrize(
        "F, G",
        [
            # the two families of the acceptance pair
            (SPEC_T1(2000, 2060), SPEC_T2(2030, 2090)),
            (SPEC_T1(0, 40), SPEC_T1(0, 40)),
            # degree 2 near t = 2e4: conductors above 2^62
            (SPEC_T1(20000, 20040), SPEC_QUAD(20010, 20050)),
            # t = 625 and every fiber of the second minimalize at p >= 5
            (
                EllipticFamilySpec((0, 1), (5**6,), 600, 650),
                EllipticFamilySpec((0, 7**4), (7**6,), 1, 40),
            ),
        ],
    )
    def test_matches_pairwise_gcd(self, F, G):
        assert avg_log_conductor(F, G) == pytest.approx(
            brute_avg_log_conductor(F, G), rel=1e-12
        )

    def test_big_conductors_present(self):
        big = ecgeom.family_conductors(ecgeom.fiber_models(SPEC_QUAD(20010, 20050)))
        assert max(big.proxies.values()) >= 2**62

    def test_family_conductors_match_proxy(self):
        spec = EllipticFamilySpec((0, 1), (5**6,), 600, 650)
        fc = ecgeom.family_conductors(ecgeom.fiber_models(spec))
        assert list(fc.proxies) == list(spec.t_range)
        assert fc.proxies[625] == conductor_proxy(1, 1)
        counts: dict = {}
        for t in spec.t_range:
            c = conductor_proxy(spec.A(t), spec.B(t))
            assert fc.proxies[t] == c
            for p, e in factorize(c).items():
                for k in range(1, e + 1):
                    counts[p, k] = counts.get((p, k), 0) + 1
        flat = {
            (p, k + 1): n
            for p, row in fc.prime_powers.items()
            for k, n in enumerate(row)
        }
        # each prime of an unsplit block divides its fibers' proxies once
        for block, n in fc.blocks.items():
            for p in factorize(block):
                flat[p, 1] = flat.get((p, 1), 0) + n
        assert flat == counts

    def test_singular_fibers_skipped(self):
        # A = -3, B = 1 + T is singular where B = 2: at t = 1 only
        spec = EllipticFamilySpec((-3,), (1, 1), 0, 4)
        assert list(ecgeom.family_conductors(ecgeom.fiber_models(spec)).proxies) == [0, 2, 3]
        with pytest.raises(ValueError):
            avg_log_conductor(EllipticFamilySpec((-3,), (2,), 0, 3), SPEC_T1(1, 5))

    def test_symmetric(self):
        f, g = SPEC_T1(20, 30), SPEC_T2(35, 45)
        assert avg_log_conductor(f, g) == pytest.approx(avg_log_conductor(g, f))

    def test_single_pair(self):
        f, g = SPEC_T1(7, 8), SPEC_T2(9, 10)
        c1 = conductor_proxy(7, 1)
        c2 = conductor_proxy(9, 2)
        lo, hi = rs_conductor_bounds(c1, c2)
        assert avg_log_conductor(f, g) == pytest.approx(
            0.5 * (math.log(lo) + math.log(hi))
        )

    def test_growth(self):
        small = avg_log_conductor(SPEC_T1(20, 40), SPEC_T2(20, 40))
        large = avg_log_conductor(SPEC_T1(200, 240), SPEC_T2(200, 240))
        assert large > small

    def test_family_constant_j(self):
        spec = EllipticFamilySpec((0, 1), (0,), 0, 10)
        assert spec.j_is_constant()
        assert not SPEC_T1(0, 10).j_is_constant()

    @pytest.mark.parametrize(
        "a_coeffs, b_coeffs",
        [((0,), (0,)), ((0, 0, -3), (0, 0, 0, 2))],  # 4(-3T^2)^3 + 27(2T^3)^2 = 0
    )
    def test_identically_singular_family_rejected(self, a_coeffs, b_coeffs):
        spec = EllipticFamilySpec(a_coeffs, b_coeffs, 0, 10)
        with pytest.raises(ValueError, match="vanishes identically"):
            spec.j_is_constant()
        with pytest.raises(ValueError, match="vanishes identically"):
            michel_moment(spec, 7)
