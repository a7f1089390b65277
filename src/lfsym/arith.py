"""Exact integer and character-theoretic primitives.

Provides the prime sieve, Kronecker symbols and int8 Legendre tables,
integer factorization, primitive-root power tables and Dirichlet character
tables (prime modulus) shared by the rest of the package.  Residue kernels
mod p take their integer width from ``residue_dtype(p)``: int32 while every
intermediate fits, int64 beyond.  They reduce an array mod p with one
helper, ``_reduce_mod``, as a - (a // p) * p: numpy's floor division by a
scalar is several times faster than its remainder.  Arrays that index a
table are intp, which numpy would otherwise convert on every scatter and
gather.  Everything here is exact: character values are stored as
root-of-unity indices so that orthogonality sums cancel without floating
tolerance creep.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PrimeTable",
    "sieve_primes",
    "is_prime",
    "factorize",
    "kronecker_symbol",
    "legendre_table",
    "residue_dtype",
    "primitive_root",
    "primitive_root_powers",
    "DirichletCharacter",
    "dirichlet_character",
    "characters_mod",
]


# ---------------------------------------------------------------------------
# Primes


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit`` with cached natural logs.

    Attributes:
        limit: Inclusive sieving bound.
        primes: Ascending int64 array of primes <= limit.
        log_p: float64 array, log_p[i] = log(primes[i]).
    """

    limit: int
    primes: np.ndarray
    log_p: np.ndarray

    def up_to(self, bound: int) -> np.ndarray:
        """Primes <= bound (bound must not exceed the sieved limit)."""
        if bound > self.limit:
            raise ValueError(f"bound {bound} exceeds sieved limit {self.limit}")
        return self.primes[self.primes <= bound]

    def __len__(self) -> int:
        return len(self.primes)


def sieve_primes(limit: int) -> PrimeTable:
    """Plain Eratosthenes sieve.

    Args:
        limit: Inclusive upper bound, must be >= 2.

    Returns:
        PrimeTable with all primes <= limit.

    Raises:
        ValueError: If limit < 2.
    """
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if mask[i]:
            mask[i * i :: i] = False
    primes = np.nonzero(mask)[0].astype(np.int64)
    return PrimeTable(limit=limit, primes=primes, log_p=np.log(primes.astype(float)))


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Sinclair's bases, a deterministic Miller-Rabin set for every n < 2^64
_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below
    psi_13 = 3317044064679887385961981.

    Below 2^64 it tests the seven bases 2, 325, 9375, 28178, 450775,
    9780504, 1795265022, skipping a base that n divides; from 2^64 on it
    tests the prime bases 2..41, which no composite below psi_13 passes.  At
    or above psi_13 it is a strong probable-prime test.  n may be any
    integer type (numpy integers too).
    """
    n = operator.index(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES_64 if n < 2**64 else _SMALL_PRIMES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# |x - y| products per gcd in Brent's rho
_RHO_BATCH = 128


def _brent_rho(n: int, c: int, y: int) -> int:
    """Brent's cycle search for x -> x^2 + c mod n from y: a divisor of n
    above 1, which is n when this c fails.

    The |x - y| products are accumulated mod n and one gcd is taken per
    ``_RHO_BATCH`` of them; a batch whose gcd is n is retraced one step at a
    time, so that a factor it holds together with its cofactor is still
    found.
    """
    g = q = r = 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(_RHO_BATCH, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += _RHO_BATCH
        r *= 2
    if g == n:
        # q was coprime to n before this batch, so one of its steps shares a
        # factor with n
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def _split(n: int) -> int:
    """A nontrivial factor of a composite n, by Brent's rho over seeded
    constants c."""
    rng = random.Random(n)
    while True:
        d = _brent_rho(n, rng.randrange(1, n), rng.randrange(2, n))
        if d != n:
            return d


_TRIAL_BOUND = 10_000


@functools.lru_cache(maxsize=1)
def _trial_primes() -> tuple[tuple[int, ...], int]:
    """The primes below the trial bound and their product, the primorial."""
    primes = tuple(int(p) for p in sieve_primes(_TRIAL_BOUND).primes)
    return primes, math.prod(primes)


def _trial_divide(n: int, g: int) -> tuple[dict[int, int], int]:
    """The trial primes of n > 0 as {prime: exponent}, and the cofactor of
    n that they leave, which has no prime factor below 10^4.

    g = gcd(n, primorial) is the squarefree product of the trial primes that
    divide n, so only those are divided out; once p * p > g, what remains of
    g is 1 or one prime.
    """
    primes, _ = _trial_primes()
    small = []
    for p in primes:
        if p * p > g:
            break
        if g % p == 0:
            small.append(p)
            g //= p
    if g > 1:
        small.append(g)
    return _divide_out(n, small)


def _divide_out(n: int, primes: Iterable[int]) -> tuple[dict[int, int], int]:
    """{p: exponent of p in n} over the given primes, each of which divides
    n > 0, and the cofactor of n that they leave."""
    out: dict[int, int] = {}
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    return out, n


def _product_tree(values: list[int]) -> list[list[int]]:
    """The product tree of values, leaves first: each level holds the
    products of adjacent pairs of the level below, and the last level is
    [product of all values], [1] for no values.  Multiplying balanced
    halves costs less than ``math.prod``'s running product, whose every
    step multiplies by the whole product so far."""
    tree = [list(values) or [1]]
    while len(tree[-1]) > 1:
        level = tree[-1]
        tree.append([math.prod(level[i : i + 2]) for i in range(0, len(level), 2)])
    return tree


# The sieve stages cover the primes in (10^4, 2^21), about 3.0 Mbit of
# product, in 76 equal ranges (chunks) of about 40 kbit each, taken in bands
# of 1, 1, 2, 4, 8, 16 and 44 chunks: band k is the chunks from
# _BAND_ENDS[k] up to _BAND_ENDS[k + 1], and its bound is the upper edge of
# its last chunk, about 3.7e4, 6.5e4, 1.2e5, 2.3e5, 4.5e5, 8.9e5 and 2^21.
_SIEVE_BOUND = 2**21
_CHUNK_EDGES = np.linspace(_TRIAL_BOUND, _SIEVE_BOUND, 77).astype(int).tolist()
_BAND_ENDS = (0, 1, 2, 4, 8, 16, 32, 76)


@functools.lru_cache(maxsize=None)
def _sieve_chunks(band: int) -> tuple[int, ...]:
    """The product of the primes of sieve band ``band``, as the products of
    the primes in each of its chunk ranges, built on the band's first use.

    Equal ranges hold about equal bits of product, since the sum of log p
    over p < x is about x.  Each range is sieved by the trial primes up to
    sqrt(2^21), so no table of all the primes is ever held; numpy multiplies
    its primes three at a time in int64 (p < 2^21, so p^3 < 2^63), and the
    chunk is the root of a product tree of those triples.  No caller needs
    a band's whole product, which would cost several times its chunks to
    build, and a band that no cofactor reaches is never built.
    """
    small = [p for p in _trial_primes()[0] if p * p < _SIEVE_BOUND]
    edges = _CHUNK_EDGES[_BAND_ENDS[band] : _BAND_ENDS[band + 1] + 1]
    chunks = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = np.ones(hi - lo, dtype=bool)
        for p in small:
            mask[-lo % p :: p] = False
        primes = np.flatnonzero(mask) + lo
        primes = np.append(primes, np.ones(-len(primes) % 3, dtype=primes.dtype))
        triples = primes[0::3] * primes[1::3] * primes[2::3]
        chunks.append(_product_tree(triples.tolist())[-1][0])
    return tuple(chunks)


def _stage_gcds(values: list[int], chunks: Callable[[], Iterable[int]]) -> list[int]:
    """gcd(n, N) for every n > 0 in values, where N is the product of the
    integers that ``chunks()`` gives, from one remainder tree.

    The chunks are reduced into the root of the values' product tree one at
    a time, and their product mod the root is reduced mod each node from the
    root down, so each leaf n gets N mod n at the cost of a few products as
    large as a chunk, instead of one reduction of all of N per value
    (Bernstein, "How to find smooth parts of integers", 2004).  No values
    call no chunks.
    """
    if not values:
        return []
    tree = _product_tree(values)
    root = tree[-1][0]
    r = 1
    for chunk in chunks():
        r = r * (chunk % root) % root
    rems = [r]
    for level in reversed(tree[:-1]):
        rems = [rems[i // 2] % v for i, v in enumerate(level)]
    return [math.gcd(n, r) for n, r in zip(tree[0], rems)]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    One gcd with the primorial of the primes below 10^4 reveals which of them
    divide n; only those are divided out.  What remains has no prime factor
    below 10^4, so each of its factors below 10^8 is prime and is recorded
    without a test; larger ones go to ``is_prime``, and the composite ones
    are split by Brent's rho.

    Raises:
        ValueError: If n == 0.
    """
    if n == 0:
        raise ValueError("cannot factorize 0")
    n = abs(n)
    out, n = _trial_divide(n, math.gcd(n, _trial_primes()[1]))
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < _TRIAL_BOUND**2 or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _split(m)
        stack.append(d)
        stack.append(m // d)
    return out


# The stages of ``_factor_batch``: a bound b, the chunks of the product of
# the primes below b that earlier stages leave, and how a value is divided by
# its gcd with that product.  The trial stage is followed by one stage per
# sieve band.  Below 10^8 a band's gcd is one prime, and above it
# ``factorize`` splits it by a short rho.
_STAGES = (
    (_TRIAL_BOUND, lambda: (_trial_primes()[1],), _trial_divide),
    *(
        (
            _CHUNK_EDGES[end],
            functools.partial(_sieve_chunks, band),
            lambda m, g: _divide_out(m, factorize(g)),
        )
        for band, end in enumerate(_BAND_ENDS[1:])
    ),
)


def _factor_batch(values: list[int]) -> Iterator[tuple[int, dict[int, int], int]]:
    """(i, primes, block) for every n = values[i] > 0, with primes as
    {prime: exponent} and n = block * prod p^e; block is 1 or a squarefree
    cofactor of one or two primes, left unsplit.

    The values pass the stages of ``_STAGES`` in turn.  A stage of bound b
    takes the gcd of every value it holds with its product of primes, from
    one remainder tree (``_stage_gcds``), and divides those primes out.  The
    cofactor m left has no prime below b, so:

    * below b^2 it is 1 or a prime;
    * in [b^2, b^3) it is a prime square q^2, which ``math.isqrt`` finds, or
      the block;
    * from b^3 on it is a prime when ``is_prime`` passes it, and otherwise it
      waits for the next stage.

    The first stage keeps the trial division by the primes of its gcd; each
    later one covers one band of the primes in (10^4, 2^21), whose bounds
    about double (``_sieve_chunks``), so a value leaves the remainder trees
    at the first band that settles it, and the trees shrink as the bands
    rise.  A block lies in [b^2, b^3) and has no prime below b, for the
    bound b of the stage that left it: [10^8, 10^12) for the first stage,
    [2^42, 2^63) for the last.  A value whose gcd is 1 is not divided, and
    a waiting cofactor that a band does not divide is still composite, so
    it is not tested again.  Whatever still waits after the last stage,
    composite and of 2^63 or more, goes to ``factorize``, Brent's rho
    included.  A value is yielded as soon as it is done, so only the
    waiting ones are held, and they come last; a band that no value reaches
    builds no chunk products.
    """
    pending = [(i, None, n) for i, n in enumerate(values)]
    for stage, (bound, chunks, divide) in enumerate(_STAGES):
        square, cube = bound**2, bound**3
        gcds = _stage_gcds([m for *_, m in pending], chunks)
        waiting = []
        for (i, primes, m), g in zip(pending, gcds):
            found, m = divide(m, g) if g > 1 else ({}, m)
            primes = found if primes is None else {**primes, **found}
            block = 1
            if m >= cube:
                # after the first stage every pending m failed is_prime
                if (stage and g == 1) or not is_prime(m):
                    waiting.append((i, primes, m))
                    continue
                primes[m] = 1
            elif m >= square:
                q = math.isqrt(m)
                if q * q == m:
                    primes[q] = 2
                else:
                    block = m
            elif m > 1:
                primes[m] = 1
            yield i, primes, block
        pending = waiting
    for i, primes, m in pending:
        primes.update(factorize(m))
        yield i, primes, 1


# ---------------------------------------------------------------------------
# Quadratic symbols


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the fully multiplicative extension of the
    Legendre symbol to all nonzero integers n.

    Raises:
        ValueError: If n == 0.
    """
    if n == 0:
        raise ValueError("Kronecker symbol undefined for n = 0")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    # factor out twos from n; (a|2) depends on a mod 8
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    # now n is odd and positive: Jacobi symbol with reciprocity
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def residue_dtype(p: int) -> type:
    """The integer width of the residue kernels mod p: int32 when every
    intermediate fits, at most a sum of three products of residues, so
    3 (p - 1)^2 < 2^31; int64 otherwise.  Those intermediates are
    non-negative, so they meet the contract of ``_reduce_mod``."""
    return np.int32 if 3 * (p - 1) ** 2 < 2**31 else np.int64


def _reduce_mod(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p in [0, p) for an integer array a and an integer p > 0, in the
    dtype of a; equal to ``np.remainder(a, p)``.

    Computed as a - (a // p) * p.  Contract: dtype_min + p <= a <= dtype_max
    elementwise, so that (a // p) * p cannot overflow.  p is taken as a
    Python int, so a numpy-int p does not widen the result.
    """
    p = int(p)
    return a - (a // p) * p


def legendre_table(p: int) -> np.ndarray:
    """int8 array chi of length p with chi[u] = (u|p), for a prime p.

    The squares of 1..(p-1)/2 are every quadratic residue mod an odd p, so
    they alone are marked 1, in ``residue_dtype(p)`` arithmetic.  A reader
    sums the table with a wide accumulator (numpy's ``sum`` widens int8),
    never dotting or accumulating the raw int8 values.
    """
    if p == 2:
        # (0|2) = 0, (1|2) = 1
        return np.array([0, 1], dtype=np.int8)
    x = np.arange(1, (p + 1) // 2, dtype=residue_dtype(p))
    chi = np.full(p, -1, dtype=np.int8)
    chi[_reduce_mod(x * x, p).astype(np.intp)] = 1
    chi[0] = 0
    return chi


def kronecker_table_two(values: np.ndarray) -> np.ndarray:
    """(d|2) for an integer array of d (any width, each d >= dtype_min + 8),
    via d mod 8."""
    r = _reduce_mod(values, 8)
    out = np.zeros(values.shape, dtype=np.int64)
    out[(r == 1) | (r == 7)] = 1
    out[(r == 3) | (r == 5)] = -1
    return out


# ---------------------------------------------------------------------------
# Dirichlet characters for prime modulus


def primitive_root(m: int) -> int:
    """Smallest primitive root modulo a prime m >= 3."""
    phi = m - 1
    prime_divisors = list(factorize(phi))
    for g in range(2, m):
        if all(pow(g, phi // q, m) != 1 for q in prime_divisors):
            return g
    raise ValueError(f"{m} has no primitive root (not prime?)")


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character modulo a prime m.

    Values are exact roots of unity e^(2*pi*i*k/e) with e = m - 1 the group
    exponent; ``value_index[a]`` stores k for gcd(a, m) = 1 and -1 where the
    character vanishes.  ``values`` is the complex rendering.

    Attributes:
        modulus: The (prime) modulus m.
        index: Which character: chi_j(g) = zeta_e^j for the primitive root g.
        order: Multiplicative order of the character.
        value_index: int64 array of length m (root-of-unity exponents, -1 at 0).
        values: complex128 array of length m.
    """

    modulus: int
    index: int
    order: int
    value_index: np.ndarray
    values: np.ndarray = field(repr=False)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_quadratic(self) -> bool:
        return self.order == 2

    def __call__(self, a: int) -> complex:
        return complex(self.values[a % self.modulus])

    def power_value(self, a: int, nu: int) -> complex:
        """chi(a)^nu, exact root of unity (0 when gcd(a, m) > 1)."""
        k = int(self.value_index[a % self.modulus])
        if k < 0:
            return 0j
        e = self.modulus - 1
        return complex(np.exp(2j * np.pi * ((k * nu) % e) / e))


def primitive_root_powers(m: int) -> np.ndarray:
    """intp array pw of length m - 1 with pw[k] = g^k mod m, for the
    smallest primitive root g of a prime m >= 3.

    Built in two levels: g^i and g^(s j) for i, j < s = isqrt(m - 2) + 1,
    so s^2 >= m - 1, each by a short Python loop, then pw[s j + i] =
    g^(s j) g^i mod m from one outer product.  Every unit mod m is one
    pw[k], so a walk over the units as g^k reads the inverse
    g^-k = pw[-k mod (m - 1)] and the Legendre symbol (-1)^k by position;
    discrete logs (k) are a scatter of it.
    """
    g = primitive_root(m)
    s = math.isqrt(m - 2) + 1
    low = [1] * s
    for i in range(1, s):
        low[i] = low[i - 1] * g % m
    g_s = low[-1] * g % m
    high = [1] * s
    for j in range(1, s):
        high[j] = high[j - 1] * g_s % m
    low_a = np.array(low, dtype=np.intp)
    high_a = np.array(high, dtype=np.intp)
    return _reduce_mod(high_a[:, None] * low_a, m).ravel()[: m - 1]


@functools.lru_cache(maxsize=4)
def _discrete_log(m: int) -> np.ndarray:
    """Read-only dlog[a] = k with g^k = a mod m for the smallest primitive
    root g of the prime m (dlog[0] = 0 is never read)."""
    dlog = np.zeros(m, dtype=np.int64)
    dlog[primitive_root_powers(m)] = np.arange(m - 1)
    dlog.setflags(write=False)
    return dlog


def dirichlet_character(m: int, j: int) -> DirichletCharacter:
    """The character chi_j modulo a prime m >= 3, for 0 <= j <= m - 2.

    chi_j(g^k) = e^(2*pi*i*j*k/(m-1)) for the smallest primitive root g;
    the trivial character is j = 0.  Costs O(m) time and memory.

    Raises:
        ValueError: If m < 3, m is not prime, or j is out of range.
    """
    if m < 3 or not is_prime(m):
        raise ValueError(f"modulus must be an odd prime, got {m}")
    e = m - 1
    if not 0 <= j < e:
        raise ValueError(f"character index must lie in 0..{e - 1}")
    dlog = _discrete_log(m)
    roots = np.exp(2j * np.pi * np.arange(e) / e)
    idx = np.full(m, -1, dtype=np.int64)
    idx[1:] = _reduce_mod(j * dlog[1:], e)
    vals = np.zeros(m, dtype=np.complex128)
    vals[1:] = roots[idx[1:]]
    order = e // math.gcd(e, j)
    return DirichletCharacter(
        modulus=m, index=j, order=order, value_index=idx, values=vals
    )


def characters_mod(m: int) -> list[DirichletCharacter]:
    """All m - 1 Dirichlet characters modulo a prime m >= 3, by index.

    Raises:
        ValueError: If m < 3 or m is not prime.
    """
    if m < 3 or not is_prime(m):
        raise ValueError(f"modulus must be an odd prime, got {m}")
    return [dirichlet_character(m, j) for j in range(m - 1)]
