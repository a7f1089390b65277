"""Elliptic-curve invariants, conductors and one-parameter family statistics.

Curves are short Weierstrass models y^2 = x^3 + A x + B over Q, and
one-parameter families substitute integer polynomials A(T), B(T).  Provides
exact curve invariants, minimal models (which decide isomorphism over Q), a
capped conductor proxy, Rankin-Selberg conductor bounds, average
log-conductors over parameter boxes, and the two family statistics driven
by counting points over F_p: the Nagao rank sum and the second-moment sum
over a complete residue system.

Both statistics, ``ec-scan`` and the elliptic families read the Frobenius
traces a_t(p) of every residue t mod p from one table path,
``ap_residue_tables``, which builds the tables of several specs at p from
one ``PrimeContext``: the powers of the primitive root, the Legendre signs
chi, the residues and the transform of chi at the smallest 5-smooth length
n >= 2p, made once per prime.  ``ap_residue_table`` is that path for one
spec.  The elliptic families of a pass build their tables together, prime
by prime; the statistics and ``ec-scan`` read them through one pass,
``residue_moments``, which keeps the exact sums sum_t a_t(p) and
sum_t a_t(p)^2 of one table per prime.  A table takes one of two paths,
each O(p log p):

* A = a0 + a1 T with a1 != 0 mod p and B = b0 + b1 T: with
  F0 = x^3 + a0 x + b0 and F1 = a1 x + b1 vanishing at x = root,
  a_t(p) = -chi(F0(root)) - sum_u h[u] chi(t + u), where
  h[u] = sum_{F1(x)!=0, F0(x)/F1(x)=u} chi(F1(x)).  F1 walks the units as
  g^k for the primitive root g, so 1/F1 = g^-k and chi(F1) = (-1)^k are
  read by position in one table of the powers g^k.  The second sum is a
  cyclic correlation by real FFT: the h rows of every distinct correlation
  at p are one stack, transformed by one numpy call against the one
  transform of chi.  Each is rounded to int64 and rejected (ValueError)
  when an entry lies more than 0.25 from an integer or breaks a^2 <= 4p;
* every other family reads that correlation at A = B = T,
  U[s] = a_p(x^3 + s x + s): where A B != 0 mod p, E(A, B) is the
  quadratic twist of E(s, s) by u = B / A with s = A^3 / B^2, so
  a_t(p) = chi(A) chi(B) U[s].  Twisting by g takes (A, B) to
  (g^2 A, g^3 B) and a to -a, so a(g^k, 0) = (-1)^(k // 2) a(g^(k mod 2), 0)
  and a(0, g^k) = (-1)^(k // 3) a(0, g^(k mod 3)), at most five direct
  O(p) sums; a = 0 at A = B = 0 mod p.

Every array residue is taken with ``arith._reduce_mod``, and every array that
indexes a table is intp.

Conductors of a family come from one pass, ``family_conductors``; an
elliptic family runs it once, on first use, so once per family per command.
It splits the fibers' minimal discriminants in one batch,
``arith._factor_batch``: each into its primes and at most one unsplit
squarefree block of one or two primes above 10^4, which enters the proxy
as itself, since its primes divide the discriminant once and so are
multiplicative.  The pass keeps each fiber's proxy C, the prime-power
counts n(p, k), the number of fibers with p^k | C over the primes it split
out, and the fiber count of each block.  Since log gcd(C1, C2) = sum of
log p over the p^k dividing both, the convolution's average over all pairs
of two families F and G needs no pair loop:

    sum_{f, g} log gcd(C_f, C_g) = sum_{p, k} log p * n_F(p, k) * n_G(p, k),

at a cost of the number of distinct prime powers, for conductors of any
size.  A block's primes enter that sum only when the other family holds
one of them: one gcd against the product of the other family's primes and
blocks finds those blocks, and only they are split, so the shared primes
and their counts are those of full factorizations.
``conductor_proxy`` stays the per-curve oracle.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .arith import (
    _factor_batch,
    _product_tree,
    _reduce_mod,
    factorize,
    is_prime,
    legendre_table,
    primitive_root_powers,
    residue_dtype,
    sieve_primes,
)

__all__ = [
    "CurveInvariants",
    "EllipticFamilySpec",
    "invariants",
    "minimal_model",
    "conductor_proxy",
    "rs_conductor_bounds",
    "FamilyConductors",
    "family_conductors",
    "avg_pair_log_conductor",
    "avg_log_conductor",
    "residue_moments",
    "nagao_sum",
    "michel_moment",
    "PrimeContext",
    "ap_residue_table",
    "ap_residue_tables",
    "trace_of_frobenius",
    "affine_point_count",
]


@dataclass(frozen=True)
class CurveInvariants:
    """Standard invariants of y^2 = x^3 + A x + B.

    Delta = -16(4A^3 + 27B^2), c4 = -48A, c6 = -864B, and the j-invariant
    j = 6912 A^3 / (4A^3 + 27B^2) as an exact reduced rational (None when
    the curve is singular).
    """

    A: int
    B: int
    Delta: int
    c4: int
    c6: int
    j: Optional[Fraction]

    @property
    def singular(self) -> bool:
        return self.Delta == 0


def invariants(A: int, B: int) -> CurveInvariants:
    """Exact invariants of the model y^2 = x^3 + A x + B."""
    denom = 4 * A**3 + 27 * B**2
    delta = -16 * denom
    j = Fraction(6912 * A**3, denom) if denom != 0 else None
    return CurveInvariants(A=A, B=B, Delta=delta, c4=-48 * A, c6=-864 * B, j=j)


def minimal_model(A: int, B: int) -> tuple[int, int]:
    """The minimal integral short Weierstrass model isomorphic to (A, B).

    Divides out (A, B) -> (A/p^4, B/p^6) at every prime p while p^4 | A and
    p^6 | B.  Models of one curve over Q are (u^4 A, u^6 B) for rational u,
    and if two of them are both minimal then v_p(u) = 0 at every p, so two
    nonsingular models have the same minimal model exactly when they are
    isomorphic over Q.  A prime that divides out divides gcd(A, B) to at
    least the fourth power, so the candidates are read off the factorization
    of the gcd, and nothing is factored when it is below 2^4.
    """
    g = math.gcd(A, B)
    if g < 2**4:
        return A, B
    for p, e in factorize(g).items():
        if e < 4:
            continue
        p4, p6 = p**4, p**6
        while A % p4 == 0 and B % p6 == 0:
            A //= p4
            B //= p6
    return A, B


def _proxy_exponents(A: int, primes: Iterable[int]) -> dict[int, int]:
    """The conductor proxy's exponent at each given prime of the minimal
    discriminant of y^2 = x^3 + A x + B: 8 at 2, 5 at 3, and at p >= 5, 1
    when p does not divide c4 = -48 A (multiplicative) and 2 otherwise
    (additive).

    The primes of a block that ``arith._factor_batch`` leaves unsplit need
    no exponent: they divide the discriminant once, so they cannot divide
    c4, since a prime p >= 5 dividing c4 and Delta divides A, hence B, hence
    p^2 divides Delta.  The block enters the proxy as itself.
    """
    c4 = -48 * A
    return {p: 8 if p == 2 else 5 if p == 3 else 1 if c4 % p else 2 for p in primes}


def conductor_proxy(A: int, B: int) -> int:
    """Conductor proxy supported on the primes dividing the discriminant.

    After minimalizing at every prime (``minimal_model``), so that the proxy
    is an isomorphism invariant, a prime p >= 5 dividing Delta contributes
    exponent 1 when p does not divide c4 (multiplicative reduction) and 2
    otherwise (additive).  Wild exponents are capped at their known maxima
    instead of running Tate's algorithm: 2^8 whenever 2 | Delta (always, as
    16 | Delta) and 3^5 whenever 3 | Delta.

    Raises:
        ValueError: If the curve is singular.
    """
    A, B = minimal_model(A, B)
    delta = -16 * (4 * A**3 + 27 * B**2)
    if delta == 0:
        raise ValueError("singular curve has no conductor")
    [(_, primes, block)] = _factor_batch([abs(delta)])
    exponents = _proxy_exponents(A, primes)
    return math.prod(p**e for p, e in exponents.items()) * block


def rs_conductor_bounds(C1: int, C2: int) -> tuple[int, int]:
    """Exact bounds (C1*C2)^2/g^4 <= Q <= (C1*C2)^2/g for the degree-4
    convolution conductor, with g = gcd(C1, C2)."""
    if C1 < 1 or C2 < 1:
        raise ValueError("conductors must be positive")
    g = math.gcd(C1, C2)
    sq = (C1 * C2) ** 2
    return sq // g**4, sq // g


# ---------------------------------------------------------------------------
# One-parameter families


@dataclass(frozen=True)
class EllipticFamilySpec:
    """y^2 = x^3 + A(T) x + B(T) for T in [t_min, t_max).

    Polynomials are integer coefficient tuples, lowest degree first.
    """

    a_coeffs: tuple[int, ...]
    b_coeffs: tuple[int, ...]
    t_min: int
    t_max: int

    def A(self, t: int) -> int:
        return _eval_poly(self.a_coeffs, t)

    def B(self, t: int) -> int:
        return _eval_poly(self.b_coeffs, t)

    def discriminant(self, t: int) -> int:
        return -16 * (4 * self.A(t) ** 3 + 27 * self.B(t) ** 2)

    def delta_coeffs(self) -> tuple[int, ...]:
        """The coefficients of 4 A(T)^3 + 27 B(T)^2 = -Delta(T) / 16,
        lowest degree first."""
        a, b = self.a_coeffs, self.b_coeffs
        cube, square = _poly_mul(a, _poly_mul(a, a)), _poly_mul(b, b)
        return tuple(
            4 * x + 27 * y for x, y in itertools.zip_longest(cube, square, fillvalue=0)
        )

    @property
    def t_range(self) -> range:
        return range(self.t_min, self.t_max)

    def j_is_constant(self) -> bool:
        """Exact check whether j(T) is constant as a rational function.

        Raises:
            ValueError: If the discriminant vanishes identically.
        """
        degree = max(len(self.a_coeffs), len(self.b_coeffs), 1) - 1
        seen: set[Fraction] = set()
        t = 0
        checked = 0
        while checked < 6 * degree + 2:
            j = invariants(self.A(t), self.B(t)).j
            if j is not None:
                seen.add(j)
                checked += 1
                if len(seen) > 1:
                    return False
            # t + 1 - checked of the fibers so far are singular, but a nonzero
            # Delta(T) has degree <= 3 degree, so at most that many roots
            elif t + 1 - checked > 3 * degree:
                raise ValueError("discriminant vanishes identically")
            t += 1
        return True


def _eval_poly(coeffs: Sequence[int], t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _poly_mul(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The coefficients of f g, lowest degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _eval_poly_mod(coeffs: Sequence[int], r: np.ndarray, p: int) -> np.ndarray:
    """The polynomial at the residues r mod p by Horner's rule, each step
    below p^2."""
    *rest, lead = coeffs or (0,)
    acc = np.full_like(r, lead % p)
    for c in reversed(rest):
        acc = _reduce_mod(acc * r + c % p, p)
    return acc


def _cubic_mod(x: np.ndarray, a0: int, b0: int, p: int) -> np.ndarray:
    """x^3 + a0 x + b0 mod p for residues x."""
    return _reduce_mod(_reduce_mod(x * x, p) * x + a0 % p * x + b0 % p, p)


def _require_prime(p: int) -> None:
    """ValueError unless p is a prime >= 5, as every character sum needs."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"p = {p} is not a prime >= 5")


def trace_of_frobenius(A: int, B: int, p: int) -> int:
    """a_p = p + 1 - #E(F_p) via the quadratic character sum.

    a_p = -sum_{x mod p} legendre(x^3 + A x + B); valid (by the standard
    minimal-model analysis) also at multiplicative/additive fibers.

    Raises:
        ValueError: If p is not a prime >= 5.
    """
    _require_prime(p)
    chi = legendre_table(p)
    f = _cubic_mod(np.arange(p, dtype=residue_dtype(p)), A, B, p)
    return -int(chi[f.astype(np.intp)].sum(dtype=np.int64))


def affine_point_count(A: int, B: int, p: int) -> int:
    """Brute-force count of affine points of y^2 = x^3 + A x + B over F_p."""
    count = 0
    for x in range(p):
        rhs = (x * x * x + A * x + B) % p
        for y in range(p):
            if (y * y - rhs) % p == 0:
                count += 1
    return count


class PrimeContext:
    """What every residue table at a prime p >= 5 reads, made once per prime.

    Attributes:
        p: The prime (a numpy integer is read as the int it holds).
        pw: pw[k] = g^k mod p for the smallest primitive root g (intp).
        chi: The Legendre signs, chi[g^k] = (-1)^k and chi[0] = 0 (int64).
        r: The residues 0..p-1 in ``residue_dtype(p)``.
        n: The FFT length, the smallest 5-smooth n >= 2p.
        chi_hat: ``np.fft.rfft(chi, n)``.

    Raises:
        ValueError: If p is not a prime >= 5.
    """

    def __init__(self, p: int):
        self.p = p = operator.index(p)
        _require_prime(p)
        self.pw = pw = primitive_root_powers(p)
        self.chi = np.zeros(p, dtype=np.int64)
        self.chi[pw[0::2]] = 1
        self.chi[pw[1::2]] = -1
        self.r = np.arange(p, dtype=residue_dtype(p))
        self.n = _fft_length(p)
        self.chi_hat = np.fft.rfft(self.chi, self.n)


def _fft_length(p: int) -> int:
    """The smallest 5-smooth n >= 2p, at which numpy's FFT is fast.

    At n >= 2p the lags 0..p-1 and -p..-1 of a linear correlation of two
    length-p rows occupy distinct slots; at n = 2p - 1 lag p - 1 would wrap
    onto slot n - p of lag -p.
    """
    best = 1 << (2 * p - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            # odd 2^k >= 2p at the least k with 2^k >= ceil(2p / odd)
            best = min(best, odd << (-(-2 * p // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def ap_residue_table(spec: EllipticFamilySpec, p: int) -> np.ndarray:
    """a_t(p) for t = 0..p-1 (t read mod p), as an exact int64 array: the
    table of ``ap_residue_tables`` for the one spec.

    The table drives family sums, Nagao sums and second moments, since a_t(p)
    only depends on t mod p.

    Raises:
        ValueError: If p is not a prime >= 5, or if the correlation yields
            an entry more than 0.25 from an integer or beyond the Hasse bound.
    """
    return next(ap_residue_tables([spec], PrimeContext(p)))


def ap_residue_tables(
    specs: Sequence[EllipticFamilySpec], context: PrimeContext
) -> Iterator[np.ndarray]:
    """The ``ap_residue_table`` of each spec at the context's prime, in order.

    A = a0 + a1 T with a1 != 0 mod p and B of degree <= 1 read the
    correlation of their own coefficients; every other spec reads it at
    A = B = T, through the quadratic twist.  The distinct correlations are
    one stack of rows, transformed by one numpy call against the context's
    ``chi_hat`` and rounded to integers together; each is checked as a
    table reads it (see the module docstring).

    Raises:
        ValueError: If a correlation yields an entry more than 0.25 from an
            integer or beyond the Hasse bound.
    """
    p, n = context.p, context.n
    own = [_linear_coefficients(spec, p) for spec in specs]
    keys = list(dict.fromkeys(key or _TWIST_KEY for key in own))
    fixed, h = zip(*(_correlation_row(key, context) for key in keys))
    # sum_u h[u] chi(t + u) as a linear correlation at lags t and t - p
    lags = np.fft.irfft(np.conj(np.fft.rfft(np.array(h), n)) * context.chi_hat, n)
    corr = lags[:, :p] + lags[:, n - p :]
    rounded = np.rint(corr)
    drift = np.abs(corr - rounded).max(axis=1)
    tables = -np.array(fixed)[:, None] - rounded.astype(np.int64)
    beyond = (tables * tables > 4 * p).any(axis=1)
    for spec, key in zip(specs, own):
        i = keys.index(key or _TWIST_KEY)
        if drift[i] > 0.25:
            raise ValueError(
                f"correlation table at p = {p} is {drift[i]:.3g} off integers"
            )
        if beyond[i]:
            raise ValueError(f"correlation table at p = {p} breaks the Hasse bound")
        yield tables[i] if key else _ap_twist_table(spec, context, tables[i])


def _linear_coefficients(spec: EllipticFamilySpec, p: int) -> Optional[tuple]:
    """(a0, a1, b0, b1) for A = a0 + a1 T with a1 != 0 mod p and B of
    degree <= 1, else None."""
    a, b = spec.a_coeffs, spec.b_coeffs
    if len(a) == 2 and len(b) <= 2 and a[1] % p:
        return (a[0], a[1], *(tuple(b) + (0, 0))[:2])
    return None


# the correlation that every table off the linear path reads, A = B = T
_TWIST_KEY = (0, 1, 0, 1)


def _correlation_row(key: tuple, context: PrimeContext) -> tuple[int, np.ndarray]:
    """(chi(F0(root)), h) of x^3 + (a0 + a1 t) x + b0 + b1 t = F0(x) + t F1(x)
    for key = (a0, a1, b0, b1), a1 != 0 mod p: a_t(p) = -chi(F0(root)) -
    sum_u h[u] chi(t + u)."""
    a0, a1, b0, b1 = key
    p, chi = context.p, context.chi
    pw = context.pw.astype(context.r.dtype)  # residues, not indices
    # F1 vanishes at x = root alone and equals g^k at x = root + g^k / a1;
    # k runs over 1..p - 1, so that g^-k = pw[p - 1 - k] is pw reversed,
    # and chi(F1(x)) = (-1)^k
    inv_a1 = pow(a1, -1, p)
    root = -b1 * inv_a1 % p
    fixed = int(chi[(root**3 + a0 * root + b0) % p])
    x = _reduce_mod(pw * (int(pw[1]) * inv_a1 % p) + root, p)
    u = _reduce_mod(_cubic_mod(x, a0, b0, p) * pw[::-1], p)
    return fixed, np.bincount(u[1::2], minlength=p) - np.bincount(u[0::2], minlength=p)


def _ap_twist_table(
    spec: EllipticFamilySpec, context: PrimeContext, u: np.ndarray
) -> np.ndarray:
    """a_t(p) for every t mod p from U[s] = a_p(x^3 + s x + s) = u[s] by the
    twist and class rules of the module docstring."""
    p, pw = context.p, context.pw
    dlog = np.zeros(p, dtype=np.intp)
    dlog[pw] = np.arange(p - 1)
    A = _eval_poly_mod(spec.a_coeffs, context.r, p).astype(np.intp)
    B = _eval_poly_mod(spec.b_coeffs, context.r, p).astype(np.intp)
    kA, kB = dlog[A], dlog[B]
    # U at g^k, k < 5 (p - 1): s = g^(3 kA - 2 kB) needs no reduction mod p - 1
    u = u[np.tile(pw, 5)]
    a = u[3 * kA - 2 * kB + 2 * (p - 1)] * (1 - 2 * ((kA + kB) % 2))
    a[(A | B) == 0] = 0
    # (g^k, 0) and (0, g^k) from the classes k mod 2 and k mod 3 that occur
    for rows, k, n, (ea, eb) in (
        ((A != 0) & (B == 0), kA, 2, (1, 0)),
        ((A == 0) & (B != 0), kB, 3, (0, 1)),
    ):
        k = k[rows]
        traces = np.zeros(n, dtype=np.int64)
        for c in np.unique(k % n):
            x = int(pw[c])
            traces[c] = trace_of_frobenius(ea * x, eb * x, p)
        a[rows] = traces[k % n] * (1 - 2 * (k // n % 2))
    return a


def residue_moments(
    spec: EllipticFamilySpec, primes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Exact sum_{t mod p} a_t(p) and sum_{t mod p} a_t(p)^2 at each prime.

    Returns two int64 arrays aligned with primes, from one
    ``ap_residue_table`` per prime, only one of them alive at a time.

    Raises:
        ValueError: If some p is not a prime >= 5, or a table fails its checks.
    """
    first = np.zeros(len(primes), dtype=np.int64)
    second = np.zeros(len(primes), dtype=np.int64)
    for i, p in enumerate(primes):
        a = ap_residue_table(spec, int(p))
        first[i] = a.sum()
        second[i] = a @ a
    return first, second


def nagao_sum(spec: EllipticFamilySpec, X: int) -> float:
    """Rank estimate from the prime-averaged first moment of a_t(p).

    Computes (1/X) * sum_{5 <= p <= X} (log p / p) * sum_{t mod p} a_t(p)
    and returns its negative; the limit as X grows is the rank of the family
    (unconditionally for rational elliptic surfaces).

    Raises:
        ValueError: If X < 11.
    """
    if X < 11:
        raise ValueError("cutoff too small")
    table = sieve_primes(X)
    keep = table.primes >= 5
    primes = table.primes[keep]
    first, _ = residue_moments(spec, primes)
    # cumsum adds in prime order, as a running total would
    return -np.cumsum(table.log_p[keep] / primes * first)[-1] / X


def michel_moment(spec: EllipticFamilySpec, p: int) -> int:
    """Exact second moment sum_{t mod p} a_t(p)^2 (requires non-constant j).

    For non-constant j this is p^2 + O(p^{3/2}).

    Raises:
        ValueError: If p is not a prime >= 5 or j is constant.
    """
    if spec.j_is_constant():
        raise ValueError("second-moment asymptotics require non-constant j")
    return int(residue_moments(spec, [p])[1][0])


@dataclass(frozen=True)
class FamilyConductors:
    """Conductor proxies of a family's nonsingular fibers, from one pass.

    Attributes:
        proxies: parameter t -> conductor proxy of E_t, in ascending t;
            singular fibers are absent.
        prime_powers: p -> counts, where counts[k-1] is the number of fibers
            whose proxy is divisible by p^k, over the primes the pass split
            out; the primes of the blocks are not among them.
        blocks: unsplit block -> number of fibers whose proxy holds it.  A
            block is a squarefree discriminant cofactor that
            ``arith._factor_batch`` leaves unsplit, in [10^8, 10^12) with
            no prime factor below 10^4 or in [2^42, 2^63) with none below
            2^21, so one or two primes that each divide its fibers' proxies
            exactly once.
    """

    proxies: dict[int, int]
    prime_powers: dict[int, list[int]]
    blocks: dict[int, int]


def family_conductors(spec: EllipticFamilySpec) -> FamilyConductors:
    """Conductor proxies, prime-power counts and unsplit blocks of a
    family's nonsingular fibers, from one pass over the box.

    The minimal discriminants of the box are split by one
    ``arith._factor_batch``, and ``_proxy_exponents`` turns each fiber's
    primes into the exponents of its proxy; a block enters as itself.
    """
    fibers = []
    deltas = []
    for t in spec.t_range:
        A, B = spec.A(t), spec.B(t)
        if 4 * A**3 + 27 * B**2 == 0:
            continue
        A, B = minimal_model(A, B)
        fibers.append((t, A))
        deltas.append(16 * abs(4 * A**3 + 27 * B**2))
    # in ascending t, whatever order the pass finishes the fibers in
    proxies = dict.fromkeys(t for t, _ in fibers)
    blocks: dict[int, int] = {}
    # (p, e) -> number of fibers whose proxy p divides exactly e times
    exact_powers: Counter[tuple[int, int]] = Counter()
    for i, primes, block in _factor_batch(deltas):
        t, A = fibers[i]
        exponents = _proxy_exponents(A, primes)
        proxies[t] = math.prod(p**e for p, e in exponents.items()) * block
        if block > 1:
            blocks[block] = blocks.get(block, 0) + 1
        exact_powers.update(exponents.items())
    prime_powers: dict[int, list[int]] = {}
    for (p, e), n in exact_powers.items():
        counts = prime_powers.setdefault(p, [])
        counts.extend([0] * (e - len(counts)))
        for k in range(e):
            counts[k] += n
    return FamilyConductors(proxies, prime_powers, blocks)


def _split_met_blocks(
    F: FamilyConductors, G: FamilyConductors, splits: dict[int, tuple[int, ...]]
) -> dict[int, list[int]]:
    """F's prime-power counts, with the primes of each of F's blocks that
    shares a prime with G added at k = 1.

    A block shares a prime with G exactly when it has a gcd above 1 with
    the product of all of G's keys, its primes and its blocks; the primes
    below 10^4 among them divide no block.  That product is first reduced
    to its gcd with the product of F's blocks, one large gcd in place of
    one per block.  Only the blocks that meet it, rare outside overlapping boxes,
    are split: a block with two primes of which G holds one is split by its
    gcd d, since a divisor 1 < d < b of a block b is one of its primes, and
    any other block by ``factorize``.  ``splits`` keeps the primes of each
    block split so far, so a block that both families hold, as in a
    self-convolution, is factored once.  The counts are copied before they
    change.
    """
    if not F.blocks:
        return F.prime_powers
    keys = list(G.prime_powers) + list(G.blocks)
    common = math.gcd(
        _product_tree(list(F.blocks))[-1][0], _product_tree(keys)[-1][0]
    )
    met = [(b, d) for b in F.blocks if (d := math.gcd(b, common)) > 1]
    if not met:
        return F.prime_powers
    counts = {p: row.copy() for p, row in F.prime_powers.items()}
    for b, d in met:
        if b not in splits:
            splits[b] = (d, b // d) if d < b else tuple(factorize(b))
        for p in splits[b]:
            counts.setdefault(p, [0])[0] += F.blocks[b]
    return counts


def avg_pair_log_conductor(F: FamilyConductors, G: FamilyConductors) -> float:
    """Average, over fiber pairs (f, g), of the convolution log-conductor.

    For each pair the log-conductor is taken as the midpoint (geometric mean
    in log space) of the Rankin-Selberg bounds on the conductor proxies:
    2 log(C1 C2) - (5/2) log gcd(C1, C2).  The gcd term sums over pairs by
    log gcd(C1, C2) = sum_{p^k | C1, p^k | C2} log p, so
    sum_{f, g} log gcd(C_f, C_g) = sum_{p, k} log p * n_F(p, k) * n_G(p, k)
    with the prime-power counts n of each family: the cost is the number of
    distinct prime powers, not of pairs.  A prime of an unsplit block enters
    only when the other family holds it too, and then the block is split,
    so the shared primes and their counts are those of full factorizations.

    Raises:
        ValueError: If either family has no nonsingular fibers.
    """
    if not F.proxies or not G.proxies:
        raise ValueError("no nonsingular fibers in range")
    logs_f = [math.log(c) for c in F.proxies.values()]
    logs_g = [math.log(c) for c in G.proxies.values()]
    base = 2.0 * (np.mean(logs_f) + np.mean(logs_g))
    splits: dict[int, tuple[int, ...]] = {}
    counts_f = _split_met_blocks(F, G, splits)
    counts_g = _split_met_blocks(G, F, splits)
    shared = sorted(p for p in counts_f if p in counts_g)
    gcd_sum = sum(
        math.log(p) * sum(a * b for a, b in zip(counts_f[p], counts_g[p]))
        for p in shared
    )
    gcd_mean = gcd_sum / (len(logs_f) * len(logs_g))
    return float(base - 2.5 * gcd_mean)


def avg_log_conductor(F: EllipticFamilySpec, G: EllipticFamilySpec) -> float:
    """``avg_pair_log_conductor`` of the fibers of two family specs.

    Raises:
        ValueError: If either family consists entirely of singular fibers.
    """
    return avg_pair_log_conductor(family_conductors(F), family_conductors(G))
