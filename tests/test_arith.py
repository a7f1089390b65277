import math
import random
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfsym import arith
from lfsym.arith import (
    characters_mod,
    factorize,
    is_prime,
    kronecker_symbol,
    legendre_table,
    primitive_root,
    sieve_primes,
)


# the last prime with int32 residue kernels and the first with int64
SWITCH_PRIMES = (26737, 26759)


def trial_division_factorize(n: int) -> dict[int, int]:
    """Reference: divide by every prime below 10^4 in turn, then split the
    cofactor as ``factorize`` does."""
    n = abs(n)
    out: dict[int, int] = {}
    for p in sieve_primes(10_000).primes.tolist():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        for q, e in factorize(n).items():
            out[q] = out.get(q, 0) + e
    return out


def trial_division_is_prime(n: int) -> bool:
    """Independent primality oracle."""
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


# hardcoded prime-counting values
PI_TABLE = {10: 4, 100: 25, 1000: 168, 10**4: 1229}


class TestSieve:
    def test_small(self):
        assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]

    def test_boundary(self):
        assert sieve_primes(2).primes.tolist() == [2]

    def test_counts_against_table(self):
        table = sieve_primes(10**4)
        for limit, count in PI_TABLE.items():
            assert len(table.up_to(limit)) == count

    def test_count_against_trial_division(self):
        table = sieve_primes(10**4)
        oracle = sum(1 for n in range(2, 10**4 + 1) if trial_division_is_prime(n))
        assert len(table) == oracle == 1229

    def test_strictly_increasing_and_prime(self):
        primes = sieve_primes(2000).primes
        assert np.all(np.diff(primes) > 0)
        assert all(trial_division_is_prime(int(p)) for p in primes)

    def test_cached_logs(self):
        table = sieve_primes(100)
        assert table.log_p[0] == pytest.approx(math.log(2))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sieve_primes(1)


class TestKronecker:
    def test_perfect_square(self):
        assert kronecker_symbol(4, 7) == 1

    def test_nonresidue(self):
        # squares mod 5 are {1, 4}
        assert kronecker_symbol(3, 5) == -1

    def test_zero_modulus(self):
        with pytest.raises(ValueError):
            kronecker_symbol(3, 0)

    def test_matches_exhaustive_legendre(self):
        for p in sieve_primes(200).primes[1:]:  # odd primes
            p = int(p)
            squares = {(x * x) % p for x in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in squares else -1)
                assert kronecker_symbol(a, p) == expected

    def test_legendre_table_agrees(self):
        # every prime below 3000, and the primes on either side of the
        # int32/int64 switch at 3 (p - 1)^2 = 2^31
        for p in sieve_primes(3000).primes.tolist() + list(SWITCH_PRIMES):
            tab = legendre_table(p)
            assert tab.dtype == np.int8
            assert [kronecker_symbol(a, p) for a in range(p)] == tab.tolist(), p

    def test_residue_width_switches_where_three_products_overflow(self):
        assert 3 * 26754**2 < 2**31 < 3 * 26755**2
        assert arith.residue_dtype(26755) is np.int32
        assert arith.residue_dtype(26756) is np.int64
        below, above = SWITCH_PRIMES
        assert sieve_primes(above).primes[-2:].tolist() == [below, above]
        assert arith.residue_dtype(below) is np.int32
        assert arith.residue_dtype(above) is np.int64

    @given(st.integers(-500, 500), st.integers(-500, 500))
    @settings(max_examples=100)
    def test_multiplicative_in_top(self, a, b):
        p = 101
        assert (
            kronecker_symbol(a, p) * kronecker_symbol(b, p)
            == kronecker_symbol(a * b, p)
        )

    @given(st.integers(1, 300), st.integers(-300, 300))
    @settings(max_examples=100)
    def test_multiplicative_in_bottom(self, n, a):
        m = 15
        assert (
            kronecker_symbol(a, n) * kronecker_symbol(a, m)
            == kronecker_symbol(a, n * m)
        )


# (n, c): at x -> x^2 + c from 2, a batch of |x - y| products holds every
# prime power of n, so its gcd is n and only the retrace finds the factor
RHO_BACKTRACK_CASES = [
    (1_000_003**2, 4),
    (10_007**3, 1),
    (10_007**2 * 1_000_003, 47),
]
HARD_INPUTS = {
    1_000_003**2: {1_000_003: 2},
    10_007**3: {10_007: 3},
    10_007**2 * 1_000_003: {10_007: 2, 1_000_003: 1},
    (2**31 - 1) * (2**61 - 1): {2**31 - 1: 1, 2**61 - 1: 1},
}


class TestIsPrime:
    def test_strong_pseudoprimes_are_composite(self):
        # psi_12 passes the prime bases 2..37; the other two are strong
        # pseudoprimes to several small bases
        assert 318665857834031151167461 == 399165290221 * 798330580441
        assert not is_prime(318665857834031151167461)
        assert not is_prime(3825123056546413051)
        assert not is_prime(3215031751)

    def test_primes_dividing_a_64_bit_base(self):
        assert 9780504 % 407521 == 0 and 1795265022 % 299210837 == 0
        assert is_prime(407521)
        assert is_prime(299210837)

    def test_matches_sieve(self):
        primes = set(sieve_primes(10**5).primes.tolist())
        assert [n for n in range(10**5) if is_prime(n)] == sorted(primes)

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(2**89 - 1)
        assert not is_prime((2**61 - 1) * (2**31 - 1))


class TestFactorize:
    def test_known(self):
        assert factorize(496) == {2: 4, 31: 1}
        assert factorize(-496) == {2: 4, 31: 1}

    def test_large_semiprime(self):
        n = 1_000_003 * 999_983
        assert factorize(n) == {999_983: 1, 1_000_003: 1}

    @given(st.integers(2, 10**9))
    @settings(max_examples=50)
    def test_roundtrip(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.items()) == n
        assert all(trial_division_is_prime(p) or p > 10**4 for p in f)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_matches_trial_division_loop(self):
        # the prime divisors below 10^4 come from one gcd with their
        # primorial; the result, key order included, is that of dividing by
        # every prime in turn, with the last of them and the first beyond
        rng = random.Random(7)
        special = [9973, 10007, 9973**2, 10007**2, 9973 * 10007, 9967 * 9973]
        inputs = [rng.randrange(2, 10**12) for _ in range(300)]
        inputs += [s * rng.randrange(1, 10**6) for s in special for _ in range(20)]
        inputs += special + [2**40, 3**25 * 9973, 1, -9973 * 10007]
        for n in inputs:
            assert list(factorize(n).items()) == list(
                trial_division_factorize(n).items()
            ), n

    def test_hard_inputs(self):
        for n, expected in HARD_INPUTS.items():
            assert factorize(n) == expected, n

    @pytest.mark.parametrize("n, c", RHO_BACKTRACK_CASES)
    def test_brent_retraces_a_batch_that_holds_n(self, n, c, monkeypatch):
        gcds = []

        def gcd(a, b):
            gcds.append(math.gcd(a, b))
            return gcds[-1]

        monkeypatch.setattr(arith, "math", types.SimpleNamespace(gcd=gcd))
        d = arith._brent_rho(n, c, 2)
        assert n in gcds
        assert 1 < d < n and n % d == 0

    def test_tests_and_splits_only_what_it_must(self, monkeypatch):
        # every cofactor left by the trial primes below 10^4 that is below
        # 10^8 is prime, so it is never tested; rho splits only the
        # cofactors that is_prime rejects
        tested, split = [], []
        original_is_prime, original_split = arith.is_prime, arith._split

        def counted_test(m):
            tested.append((m, original_is_prime(m)))
            return tested[-1][1]

        def counted_split(m):
            split.append(m)
            return original_split(m)

        monkeypatch.setattr(arith, "is_prime", counted_test)
        monkeypatch.setattr(arith, "_split", counted_split)
        inputs = [*HARD_INPUTS, 2 * 10_007, 9973 * 99_999_989, 3 * 10_007 * 10_009]
        for n in inputs:
            factorize(n)
        assert tested and all(m >= 10**8 for m, _ in tested)
        assert split == [m for m, prime in tested if not prime]
        assert {m for m, _ in tested} >= {10_007**2, 2**61 - 1, 10_007 * 10_009}

    def test_primorial_gcds_match_one_gcd_each(self):
        # one remainder tree over all the values gives each its own gcd
        _, primorial = arith._trial_primes()
        rng = random.Random(11)
        values = [rng.randrange(1, 10**20) for _ in range(257)]
        values += [1, 9973**3, 10007**2, 2**70, 6 * 9967 * 9973 * 10007]
        chunks = arith._STAGES[0][1]
        assert arith._stage_gcds(values, chunks) == [
            math.gcd(n, primorial) for n in values
        ]
        assert arith._stage_gcds([9973 * 10007], chunks) == [9973]
        assert arith._stage_gcds([], chunks) == []

    def test_sieve_gcds_match_one_gcd_each(self):
        # each band's chunks give the gcd with the product of its own primes,
        # those in [previous bound, bound); the bands' products multiply to
        # the product of the primes in (10^4, 2^21), each prime once
        def product_of(values):
            # multiplied in pairs, since a running product of 3 Mbit is slow
            while len(values) > 1:
                pairs = range(0, len(values), 2)
                values = [math.prod(values[i : i + 2]) for i in pairs]
            return values[0]

        primes = [int(p) for p in sieve_primes(2**21).primes if p > 10**4]
        bounds = [stage[0] for stage in arith._STAGES]
        assert bounds[0] == 10**4 and bounds[-1] == 2**21
        assert bounds == sorted(bounds)
        rng = random.Random(5)
        total, seen = 1, []
        for lo, (bound, chunks, _) in zip(bounds, arith._STAGES[1:]):
            band = [p for p in primes if lo <= p < bound]
            seen += band
            product = product_of(band)
            assert product_of(list(chunks())) == product
            total *= product
            # the primes next to both ends of the band, and to 10^4 and 2^21
            edges = [band[0], band[-1], 9973, 2097169]
            edges += [p for p in primes if p >= bound][:1]
            edges += [p for p in primes if p < lo][-1:]
            values = [1, band[0] * 2097169, band[-1] ** 3 * band[0] ** 2, 2**64 + 1]
            for _ in range(20):
                picks = rng.sample(edges, 2)
                picks += [rng.randrange(10**4, 2**22) for _ in range(3)]
                values.append(math.prod(picks) * rng.randrange(1, 10**6))
            assert arith._stage_gcds(values, chunks) == [
                math.gcd(n, product) for n in values
            ]
            assert arith._stage_gcds([band[0] * 2097169], chunks) == [band[0]]
            assert arith._stage_gcds([], chunks) == []
        assert seen == primes and total == product_of(primes)


class TestFactorBatch:
    def test_contract_over_random_products(self):
        rng = random.Random(20)
        small = [int(p) for p in sieve_primes(10**4).primes]

        def primes_in(lo, hi, k=1):
            out = set()
            while len(out) < k:
                if is_prime(n := rng.randrange(lo, hi)):
                    out.add(n)
            return out

        # each part is {prime: exponent}; a value is a few primes below 10^4
        # times one part and one part that rho splits quickly
        quick = [
            lambda: dict.fromkeys(primes_in(10**4, 2**21), 1),
            lambda: dict.fromkeys(primes_in(10**4, 2**21), 2),
            lambda: dict.fromkeys(primes_in(2**21, 2**26), 2),
            # squarefree blocks in [10^8, 10^12) and in [2^42, 2^52)
            lambda: dict.fromkeys(primes_in(10**4, 10**6, 2), 1),
            lambda: dict.fromkeys(primes_in(2**21, 2**26, 2), 1),
            # a composite of 2^63 and above with no prime below 2^21
            lambda: dict.fromkeys(primes_in(2**21, 2**23, 3), 1),
        ]
        parts = quick + [
            lambda: dict.fromkeys(primes_in(10**12, 2**64), 1),
            lambda: dict.fromkeys(primes_in(2**63, 2**64), 1),
        ]
        factored = [{}, {9973: 1, 10007: 1}, {10007: 2}]
        factored.append(dict.fromkeys(primes_in(10**8, 10**12), 1))
        for _ in range(200):
            f = {p: rng.randrange(1, 4) for p in rng.sample(small, 3)}
            for part in (rng.choice(parts)(), rng.choice(quick)()):
                for p, e in part.items():
                    f[p] = f.get(p, 0) + e
            factored.append(f)
        values = [math.prod(p**e for p, e in f.items()) for f in factored]

        def cofactor(i, bound):
            return math.prod(p**e for p, e in factored[i].items() if p > bound)

        # the stage that leaves a value: the first whose cofactor, the part
        # with no prime below its bound b, is below b^3 or prime; one past
        # the last stage for the values left to factorize
        bounds = [stage[0] for stage in arith._STAGES]

        def leaving_stage(i):
            for k, b in enumerate(bounds):
                if (m := cofactor(i, b)) < b**3 or is_prime(m):
                    return k
            return len(bounds)

        stages = [leaving_stage(i) for i in range(len(values))]
        order = []
        blocks = []
        for i, primes, block in arith._factor_batch(values):
            order.append(i)
            if block > 1:
                blocks.append((i, block))
            f = factored[i]
            assert values[i] == block * math.prod(p**e for p, e in primes.items())
            assert all(is_prime(p) for p in primes)
            assert primes == {p: e for p, e in f.items() if p in primes}
            rest = [p for p in f if p not in primes]
            assert block == math.prod(rest)
            if block > 1:
                # one or two primes, each dividing the value once
                assert len(rest) <= 2 and all(f[p] == 1 for p in rest)
                # in [b^2, b^3) with no prime below b, for the bound b of
                # the stage that left it
                b = bounds[stages[i]]
                assert b**2 <= block < b**3 and min(rest) > b
        assert sorted(order) == list(range(len(values)))
        # a value is yielded by the stage that leaves it, stage by stage
        assert order == sorted(range(len(values)), key=lambda i: (stages[i], i))
        # the values whose first-stage cofactor is a composite of 10^12 or
        # more reach the sieve bands, and come last
        second = [
            i
            for i in range(len(values))
            if (m := cofactor(i, 10**4)) >= 10**12 and not is_prime(m)
        ]
        first = [i for i in range(len(values)) if i not in second]
        assert order[: len(first)] == first
        assert sorted(order[len(first) :]) == second
        # each regime is reached: blocks of both stages and factorize
        assert any(10**8 <= cofactor(i, 10**4) < 10**12 for i in first)
        assert any(2**42 <= cofactor(i, 2**21) < 2**63 for i in second)
        assert any(
            (m := cofactor(i, 2**21)) >= 2**63 and not is_prime(m) for i in second
        )
        # and blocks of the first stage, of the last and of a band between
        left = {stages[i] for i, block in blocks}
        assert {0, len(bounds) - 1} <= left
        assert left & set(range(1, len(bounds) - 1))


class TestCharacters:
    def test_mod3(self):
        chars = characters_mod(3)
        assert len(chars) == 2
        trivial = [c for c in chars if c.is_trivial]
        quad = [c for c in chars if c.is_quadratic]
        assert len(trivial) == 1 and len(quad) == 1
        assert quad[0](2) == pytest.approx(-1)

    def test_mod5_order_structure(self):
        # (Z/5)^* is cyclic of order 4: one character each of order 1 and 2,
        # two of order 4
        orders = sorted(c.order for c in characters_mod(5))
        assert orders == [1, 2, 4, 4]

    @pytest.mark.parametrize("m", [7, 13, 31])
    def test_orthogonality_exact(self, m):
        chars = characters_mod(m)
        assert len(chars) == m - 1
        for a in range(2, m):
            total = sum(c(a) for c in chars)
            assert abs(total) < 1e-12
        assert sum(c(1) for c in chars) == pytest.approx(m - 1)

    def test_multiplicative(self):
        m = 11
        for chi in characters_mod(m):
            for a in range(1, m):
                for b in range(1, m):
                    assert chi(a) * chi(b) == pytest.approx(chi(a * b % m))

    def test_vanishes_only_at_noncoprime(self):
        for chi in characters_mod(7):
            assert chi(0) == 0
            assert chi(7) == 0
            for a in range(1, 7):
                assert abs(chi(a)) == pytest.approx(1.0)

    def test_value_at_one(self):
        for chi in characters_mod(13):
            assert chi(1) == pytest.approx(1.0)

    def test_values_are_order_th_roots(self):
        for chi in characters_mod(11):
            for a in range(1, 11):
                assert chi(a) ** chi.order == pytest.approx(1.0)

    def test_power_value(self):
        chi = characters_mod(7)[2]
        for a in range(1, 7):
            for nu in range(1, 5):
                assert chi.power_value(a, nu) == pytest.approx(chi(a) ** nu)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            characters_mod(9)
        with pytest.raises(ValueError):
            characters_mod(2)


class TestReduceMod:
    """``_reduce_mod`` equals ``np.remainder`` over its whole contract,
    dtype_min + p <= a <= dtype_max, and keeps the dtype of a."""

    @given(
        st.sampled_from([np.int32, np.int64]),
        st.integers(1, 2**31 - 1),
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40),
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_equals_remainder(self, dtype, p, raw, numpy_divisor):
        info = np.iinfo(dtype)
        lo, hi = info.min + p, info.max
        # fold the draws into the contract and pin both of its ends
        a = np.array(
            [lo + v % (hi - lo + 1) for v in raw] + [lo, hi, 0, -1], dtype=dtype
        )
        divisor = np.int64(p) if numpy_divisor else p
        out = arith._reduce_mod(a, divisor)
        assert out.dtype == dtype
        assert np.array_equal(out, np.remainder(a, p))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_small_divisors_at_the_bound(self, dtype):
        info = np.iinfo(dtype)
        for p in (1, 2, 3, 4, 8, 101, np.int32(7), np.int64(26737)):
            a = np.array([info.min + int(p), info.max, -int(p), int(p)], dtype=dtype)
            out = arith._reduce_mod(a, p)
            assert out.dtype == dtype
            assert np.array_equal(out, np.remainder(a, int(p))), p


POWER_TABLE_PRIMES = [int(p) for p in sieve_primes(2000).primes[1:]] + [9973, 10007]


class TestPowerTable:
    def test_powers_of_the_primitive_root(self):
        for p in (3, 5, 101, 1999, 10007):
            g = primitive_root(p)
            assert arith.primitive_root_powers(p).tolist() == [
                pow(g, k, p) for k in range(p - 1)
            ]

    def test_unit_inverses(self):
        # the correlation path reads 1/g^k = g^-k at position -k mod (p - 1)
        for p in POWER_TABLE_PRIMES:
            pw = arith.primitive_root_powers(p)
            assert pw.dtype == np.intp
            inv = np.roll(pw[::-1], 1)
            assert inv.tolist() == [pow(int(v), -1, p) for v in pw], p

    def test_legendre_symbols(self):
        # chi(g^k) = (-1)^k, scattered once for the correlation's operand
        for p in POWER_TABLE_PRIMES:
            pw = arith.primitive_root_powers(p)
            chi = np.zeros(p, dtype=np.int64)
            chi[pw[0::2]] = 1
            chi[pw[1::2]] = -1
            assert np.array_equal(chi, legendre_table(p)), p

    @pytest.mark.parametrize("m", [3, 5, 7, 101, 1999])
    def test_discrete_log_matches_loop(self, m):
        g = primitive_root(m)
        dlog = np.zeros(m, dtype=np.int64)
        acc = 1
        for k in range(m - 1):
            dlog[acc] = k
            acc = acc * g % m
        assert np.array_equal(arith._discrete_log(m), dlog)
