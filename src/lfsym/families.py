"""Families of L-functions presented through their local data.

A family is a finite collection of members, each counted once, each with a
log-conductor and a form key with the key of its dual.  A key names the form
in any family that holds it: ("kronecker", d) for a quadratic character, also
of prime modulus, ("dirichlet", m, j) for another chi_j mod m, the minimal
model for an elliptic curve, ("sym", M, the base's key) for a symmetric-power
lift, the set of its factors' keys for a convolution's pair, and by default
the family and the member.

The member-level contract is one matrix per prime: ``_member_bs(members,
primes, nu_max)`` gives (good, b) at each prime of a block, where good[k]
says whether the k-th member is unramified at p and b[nu-1, k] is its power
sum b(p^nu), 0 where it is not.
A convolution's matrix is the entrywise product of its factors' matrices.
Each family defines its rows once, in ``_rows``, over an array of primes;
``Family._rows``, the member matrix summed over its members, is the
reference every faster row is tested against.  Statistics modules consume
families through ``moment_tables``, which gives each family the rows of
every prime up to a cutoff; ``prime_moments`` is the row of one prime.  The
degree-2 families, elliptic curves and the cusp form, share the base
``HeckeFamily``, whose one row builder, ``_hecke_row``, weighs the Hecke
power sums of a prime's distinct normalized traces by their member counts:
an elliptic family's residue histogram (``_trace_histograms``), or the cusp
form's tau(p)/p^(11/2) with weight 1 (``_trace_distributions``).  Their
members' normalized traces (``_member_traces``) give their matrices.

A derived family's row at p depends only on its factors' rows at p
(``_factors``), so one pass, ``moment_tables``, builds the rows of every
family a command reads, each prime's row once per family, factors first:
a convolution's (or twist's) rows are the products of its factors' rows,
less the pairs (f, g) with g the dual of f, whose product is not cuspidal
(one member matrix of those pairs per prime, and one call of the factor
for both sides of a self-convolution), and a symmetric-power lift regroups
its base's Hecke power sums (``satake.sym_power_sums``, on rows and on
member matrices alike).  The families of one class that the pass can build
together go through one ``_rows_together`` call, by default each family's
``_rows``: the elliptic families build theirs prime by prime from one
``ecgeom.PrimeContext`` and one stacked transform per prime, dropped before
the next prime.  Nothing is kept between passes.

Character sums are exact narrow integers: the quadratic family gathers the
int8 ``legendre_table(p)`` at its discriminants mod p, reduced by
``arith._reduce_mod`` in int32 while every |d| < 2^30 and in int64
otherwise, and a Kronecker twist builds its rows from chi(p) at every prime
at once, equal bit for bit to the quadratic family's rows of d alone.
An elliptic family weighs each residue t mod p by its members, counted from
the box rather than member by member, and 0 where Delta(t) = 0 mod p, from
one Horner pass of Delta's integer coefficients.

Constructors: nontrivial Dirichlet characters of prime modulus, quadratic
characters of fundamental discriminants (the Dirichlet family holds no
character tables: its moments follow from orthogonality, and its members'
values at p come from one discrete-log table), one-parameter elliptic-curve
families, the level-one weight-12 cusp form, symmetric-power lifts and
Rankin-Selberg convolutions.  A fixed twist f x G is the convolution of G
with the one-member family {f}: a ``QuadraticFamily`` over one discriminant,
a ``DirichletFamily`` holding one character, or the cusp form, from which
the twist takes its coefficients, conductor, bad primes and keys.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from . import weil
from .arith import (
    DirichletCharacter,
    _discrete_log,
    _reduce_mod,
    dirichlet_character,
    is_prime,
    kronecker_symbol,
    kronecker_table_two,
    legendre_table,
    sieve_primes,
)
from .ecgeom import (
    EllipticFamilySpec,
    FamilyConductors,
    PrimeContext,
    _eval_poly_mod,
    ap_residue_tables,
    avg_pair_log_conductor,
    family_conductors,
    minimal_model,
    rs_conductor_bounds,
)
from .satake import hecke_b_array, sym_power_sums

__all__ = [
    "Family",
    "HeckeFamily",
    "PrimeMoments",
    "MomentTable",
    "FamilyError",
    "moment_tables",
    "dirichlet_family",
    "quadratic_family",
    "elliptic_family",
    "cusp_form_delta",
    "sym_lift",
    "convolve",
    "twist_by_fixed",
    "fundamental_discriminants",
    "ramanujan_tau_table",
    "kronecker_twist",
    "character_twist",
]


@dataclass(frozen=True)
class PrimeMoments:
    """Family-aggregated coefficient data at one prime: one row of ``_rows``.

    Attributes:
        p: The prime.
        good_weight: Number of members unramified at p.
        total_weight: Number of members of the family.
        sums: complex128 array, sums[nu-1] = sum over good members of
            b(p^nu).
    """

    p: int
    good_weight: float
    total_weight: float
    sums: np.ndarray


@dataclass(frozen=True)
class MomentTable:
    """The family's rows at every prime up to a cutoff, as arrays.

    Row i describes primes[i]: good[i] is its good weight, the number of
    members unramified there, and sums[i, nu-1] its good-member sum of
    b(p^nu) (complex128).  Every prime-side statistic is a masked
    contraction of these rows against test-function weights.  The arrays
    are read-only.
    """

    primes: np.ndarray
    log_p: np.ndarray
    good: np.ndarray
    sums: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)


_Rows = tuple[np.ndarray, np.ndarray]


def _empty_rows(n: int, nu_max: int) -> _Rows:
    return np.empty(n), np.empty((n, nu_max), dtype=np.complex128)


class FamilyError(ValueError):
    """A ValueError raised by the rows or the estimate of ``family``."""

    def __init__(self, family: Family, message: str):
        super().__init__(message)
        self.family = family


@contextmanager
def _blamed(family: Family):
    """Raise a ValueError of the block, unless it already names a family,
    as a FamilyError of ``family``."""
    try:
        yield
    except FamilyError:
        raise
    except ValueError as exc:
        raise FamilyError(family, str(exc)) from exc


class Family:
    """Base contract; concrete families override the data accessors."""

    family_id: str = "family"
    degree: int = 1

    # -- member-level contract ------------------------------------------------

    def iter_members(self) -> Iterator:
        raise NotImplementedError

    def _member_bs(self, members: list, primes, nu_max: int) -> Iterator[tuple]:
        """(good, b) of the members at each prime, in order: good[k] is False
        where the k-th member is ramified at p, b[nu-1, k] its b(p^nu), 0
        there.  A block is one call, which may share work (Delta's tau)."""
        raise NotImplementedError

    def log_conductor(self, member) -> float:
        raise NotImplementedError

    def form_key(self, member):
        """The form a member is, by default the member of this family; a
        convolution excludes each pair (f, g) in which g's key is f's dual key."""
        return (self.family_id, member)

    def dual_key(self, member):
        """The key of the member's contragredient, by default its own key."""
        return self.form_key(member)

    # -- family-level derived data --------------------------------------------

    def size(self) -> float:
        """Number of members."""
        return float(sum(1 for _ in self.iter_members()))

    def average_log_conductor(self) -> float:
        tot = w = 0.0
        for m in self.iter_members():
            tot += self.log_conductor(m)
            w += 1
        if w == 0:
            raise ValueError(f"family {self.family_id} is empty")
        return tot / w

    def _factors(self, nu_max: int) -> tuple:
        """The (family, columns) pairs whose rows at the same primes ``_rows``
        reads to build nu_max columns."""
        return ()

    def _rows(self, primes: np.ndarray, nu_max: int, factor_rows=()) -> _Rows:
        """(good, sums) at the primes, as in a ``MomentTable``, from the rows
        of ``_factors(nu_max)`` at the same primes.  Here each prime's member
        matrix summed over the members: the reference for every family's
        faster rows."""
        members = list(self.iter_members())
        good = np.empty(len(primes))
        sums = np.empty((len(primes), nu_max), dtype=np.complex128)
        for i, (ok, b) in enumerate(self._member_bs(members, primes, nu_max)):
            good[i] = np.count_nonzero(ok)
            sums[i] = b.sum(axis=1)
        return good, sums

    @classmethod
    def _rows_together(cls, jobs: list) -> list:
        """The rows of each (family, primes, nu_max, factor_rows) job, in
        order, for families of this class whose primes are prefixes of one
        ascending array.  Here each family's own ``_rows``; a class whose
        families share per-prime work builds them at once.

        Raises:
            FamilyError: If a family's rows fail; it names that family.
        """
        rows = []
        for f, primes, nu_max, factor_rows in jobs:
            with _blamed(f):
                rows.append(f._rows(primes, nu_max, factor_rows))
        return rows

    def prime_moments(self, p: int, nu_max: int) -> PrimeMoments:
        """The row of the prime p, from the row of p alone of each family it
        reads; ValueError if p is not prime or nu_max < 1."""
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        good, sums = _pass_rows(_plan({self: p}, nu_max), np.array([p]))[self]
        return PrimeMoments(p, float(good[0]), self.size(), sums[0])

    def moment_table(self, P: int, nu_max: int) -> MomentTable:
        """The rows of every prime p <= P, with nu_max columns each: the
        ``moment_tables`` pass of this family alone."""
        return moment_tables({self: P}, nu_max)[self]

    def _checked(self, primes: np.ndarray, rows: _Rows) -> _Rows:
        """The rows at the primes, once their weights and sums pass the
        guards."""
        good, sums = rows
        size = self.size()
        over = np.flatnonzero(good > size)
        if len(over):
            i = over[0]
            raise ValueError(
                f"{self.family_id}: good weight {good[i]} exceeds total "
                f"weight {size} at p = {primes[i]}"
            )
        # Ramanujan: |b(p)| <= degree for every good member; the slack covers
        # rounding in sums built from products of factor sums
        beyond = np.flatnonzero(np.abs(sums[:, 0]) > self.degree * (good + 1e-9 * size))
        if len(beyond):
            i = beyond[0]
            raise ValueError(
                f"{self.family_id}: |sum of b(p)| = {abs(sums[i, 0])} exceeds "
                f"degree * good weight = {self.degree * good[i]} at p = {primes[i]}"
            )
        return rows

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.family_id!r}>"


def _plan(requests: dict, nu_max: int) -> dict:
    """{family: (reach, columns)} of the requested families and of every
    family they read, factors first: the largest cutoff and column count
    that the family or a family reading it asks for.

    Raises:
        ValueError: If nu_max < 1.
    """
    if nu_max < 1:
        raise ValueError(f"nu_max must be at least 1, got {nu_max}")
    plan: dict = {}

    def ask(f: Family, reach: int, cols: int) -> None:
        for g, need in f._factors(cols):
            ask(g, reach, need)
        old = plan.get(f, (0, 0))
        plan[f] = (max(old[0], reach), max(old[1], cols))

    for f, P in requests.items():
        ask(f, P, nu_max)
    return plan


def _pass_rows(plan: dict, primes: np.ndarray) -> dict:
    """The checked rows of every family of the plan at its primes among the
    ascending ``primes``.  A family is built once its factors are, and reads
    their rows at its own primes; the families of one class built in one
    round share one ``_rows_together`` call."""
    rows: dict = {}

    def job(f: Family) -> tuple:
        reach, cols = plan[f]
        n = int(np.searchsorted(primes, reach, side="right"))
        factor_rows = [
            (rows[g][0][:n], rows[g][1][:n, :need]) for g, need in f._factors(cols)
        ]
        return f, primes[:n], cols, factor_rows

    while len(rows) < len(plan):
        ready = [
            f
            for f, (_, cols) in plan.items()
            if f not in rows and all(g in rows for g, _ in f._factors(cols))
        ]
        for kind in dict.fromkeys(map(type, ready)):
            jobs = [job(f) for f in ready if type(f) is kind]
            for (f, own, _, _), built in zip(jobs, kind._rows_together(jobs)):
                with _blamed(f):
                    rows[f] = f._checked(own, built)
    return rows


def moment_tables(requests: dict, nu_max: int, threads: int = 1) -> dict:
    """{family: its table through its cutoff, nu_max columns} for the
    {family: cutoff} requests, from one pass over the primes.

    The pass closes the requests over ``_factors``, taking families by
    identity, and builds and checks each family's rows once, factors
    first.  At threads > 1 each of ``threads`` threads builds the block
    primes[b::threads]; threads = 1 builds all in the calling thread.  A
    row depends only on its prime, and its first columns not on the column
    count, so the tables are bit-identical for any threads and requests.

    Raises:
        ValueError: If nu_max < 1.
        FamilyError: If a family's rows fail, or break a guard: good weight
            above the family's size or |sum b(p)| above degree * good.  Its
            ``family`` is the first requested family that reads the failing one.
    """
    plan = _plan(requests, nu_max)
    table = sieve_primes(max([reach for reach, _ in plan.values()] + [2]))
    args = [plan] * threads, [table.primes[b::threads] for b in range(threads)]
    try:
        if threads == 1:
            blocks = list(map(_pass_rows, *args))
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                blocks = list(pool.map(_pass_rows, *args))
    except FamilyError as exc:
        exc.family = next(f for f in requests if exc.family in _plan({f: 0}, 1))
        raise
    tables = {}
    for f, P in requests.items():
        n = int(np.searchsorted(table.primes, P, side="right"))
        good, sums = np.empty(n), np.empty((n, nu_max), dtype=np.complex128)
        for b, (g, s) in enumerate(rows[f] for rows in blocks):
            k = len(good[b::threads])
            good[b::threads], sums[b::threads] = g[:k], s[:k, :nu_max]
        tables[f] = MomentTable(table.primes[:n], table.log_p[:n], good, sums)
    return tables


# ---------------------------------------------------------------------------
# Dirichlet characters of prime modulus


def _character_key(m: int, j: int) -> tuple:
    """The key of chi_j mod a prime m, for any j; the quadratic (.|m) is the
    Kronecker character of m* = +-m = 1 mod 4 and takes its key."""
    j %= m - 1
    if 2 * j == m - 1:
        return ("kronecker", m if m % 4 == 1 else -m)
    return ("dirichlet", m, j)


class DirichletFamily(Family):
    """All nontrivial Dirichlet characters of prime modulus m.

    Member k is the character of index k + 1 (see ``dirichlet_character``).
    The family holds just m, since its moments follow from orthogonality;
    its members' values at p are read from one discrete-log table.
    """

    def __init__(self, modulus: int):
        if not is_prime(modulus) or modulus < 3:
            raise ValueError("modulus must be an odd prime")
        self.modulus = modulus
        self.family_id = f"dirichlet({modulus})"

    def iter_members(self) -> Iterator[int]:
        return iter(range(self.modulus - 2))

    def _member_bs(self, members, primes, nu_max):
        """chi(p)^nu = e^(2 pi i (k nu mod e) / e), e = m - 1, for the
        exponent k = (member + 1) * dlog(p) mod e: ``power_value`` bit for
        bit, so the phase is taken in real arithmetic (numpy would divide a
        complex array by e as a product with 1/e)."""
        m = self.modulus
        e = m - 1
        nu = np.arange(1, nu_max + 1)[:, None]
        index, dlog = np.array(members, dtype=np.int64) + 1, _discrete_log(m)
        for p in primes.tolist():
            good = np.full(len(members), p % m != 0)
            k = index * dlog[p % m] % e
            b = np.exp(1j * (2 * np.pi * (k * nu % e) / e))
            yield good, np.where(good, b, 0)

    def log_conductor(self, member) -> float:
        return math.log(self.modulus)

    def form_key(self, member) -> tuple:
        return _character_key(self.modulus, member + 1)

    def dual_key(self, member) -> tuple:
        return _character_key(self.modulus, -(member + 1))

    def _rows(self, primes: np.ndarray, nu_max: int, factor_rows=()) -> _Rows:
        m = self.modulus
        # orthogonality: the sum over all nontrivial characters of chi(a) is
        # m - 2 when a = 1 mod m and -1 otherwise; here a = p^nu.
        sums = np.array(
            [
                [m - 2 if pow(p, nu, m) == 1 else -1 for nu in range(1, nu_max + 1)]
                for p in primes.tolist()
            ],
            dtype=np.complex128,
        ).reshape(len(primes), nu_max)
        good = np.where(primes % m == 0, 0.0, m - 2.0)
        sums[good == 0] = 0  # every member is bad at p = m
        return good, sums


def dirichlet_family(m: int) -> DirichletFamily:
    """The m - 2 nontrivial characters modulo a prime m >= 3."""
    return DirichletFamily(m)


# ---------------------------------------------------------------------------
# Quadratic characters of fundamental discriminants


def fundamental_discriminants(
    lo: int, hi: int, stride: int = 1
) -> np.ndarray:
    """Fundamental discriminants among lo, lo+stride, ... below hi.

    d is fundamental when d = 1 mod 4 and squarefree, or d = 4m with
    m = 2, 3 mod 4 squarefree; squarefree refers to |d| and |m|, so negative
    candidates are sieved like positive ones.  A stride coprime to every
    prime used in downstream sums keeps subsampled residues equidistributed.

    Raises:
        ValueError: If stride < 1, or if |lo| or |hi| exceeds 2^62: the
            candidates are int64, and ``_reduce_mod`` needs room below them
            for every prime.
    """
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if max(abs(lo), abs(hi)) > 2**62:
        raise ValueError(f"discriminant bounds must lie within +-2^62: [{lo}, {hi})")
    cands = np.arange(lo, hi, stride, dtype=np.int64)
    if len(cands) == 0:
        return cands
    limit = math.isqrt(int(np.abs(cands).max())) + 1
    primes = sieve_primes(max(limit, 2)).primes

    def squarefree(v: np.ndarray) -> np.ndarray:
        ok = np.ones(v.shape, dtype=bool)
        if len(v) == 0:
            return ok
        v = np.abs(v)
        vmax = int(v.max())
        for p in primes:
            q = int(p) * int(p)
            if q > vmax:
                break
            ok &= _reduce_mod(v, q) != 0
        return ok

    r4 = _reduce_mod(cands, 4)
    keep = np.zeros(cands.shape, dtype=bool)
    one = r4 == 1
    keep[one] = squarefree(cands[one])
    zero = r4 == 0
    q = cands[zero] // 4
    keep[zero] = (_reduce_mod(q, 4) >= 2) & squarefree(q)
    return cands[keep]


class QuadraticFamily(Family):
    """Quadratic characters chi_d = (d|.) for fundamental discriminants d."""

    def __init__(self, d_min: int, d_max: int, stride: int = 1):
        self.discriminants = fundamental_discriminants(d_min, d_max, stride)
        if len(self.discriminants) == 0:
            raise ValueError("no fundamental discriminants in range")
        self.family_id = f"quadratic[{d_min},{d_max})" + (
            f"/{stride}" if stride != 1 else ""
        )
        self._log_d = np.log(np.abs(self.discriminants).astype(float))
        # the discriminants reduced mod p: int32 while every |d| < 2^30, so
        # that d >= -2^31 + p for every prime p below 2^30 (_reduce_mod's
        # contract), the int64 array otherwise
        d = self.discriminants
        self._residue_d = d.astype(np.int32) if np.abs(d).max() < 2**30 else d

    def iter_members(self) -> Iterator[int]:
        return iter(self.discriminants.tolist())

    def _member_bs(self, members, primes, nu_max):
        """b(p^nu) = (d|p)^nu of each member d."""
        for p in primes.tolist():
            chi = np.array([float(kronecker_symbol(int(d), p)) for d in members])
            yield chi != 0, chi ** np.arange(1, nu_max + 1)[:, None]

    def log_conductor(self, member) -> float:
        return math.log(abs(member))

    def form_key(self, member) -> tuple:
        return ("kronecker", member)

    def average_log_conductor(self) -> float:
        return float(self._log_d.mean())

    def size(self) -> float:
        return float(len(self.discriminants))

    def _rows(self, primes: np.ndarray, nu_max: int, factor_rows=()) -> _Rows:
        d = self._residue_d
        good = np.empty(len(primes))
        sums = np.empty((len(primes), nu_max), dtype=np.complex128)
        for i, p in enumerate(primes.tolist()):
            if p == 2:
                chi = kronecker_table_two(d)
            else:
                chi = legendre_table(p).take(_reduce_mod(d, p).astype(np.intp))
            good[i] = np.count_nonzero(chi)
            sums[i, 0::2] = chi.sum(dtype=np.int64)  # nu odd
            sums[i, 1::2] = good[i]  # nu even: chi^2 = 1 on good members
        return good, sums


def quadratic_family(d_range: tuple[int, int], stride: int = 1) -> QuadraticFamily:
    """Quadratic-character family over fundamental discriminants in d_range."""
    return QuadraticFamily(d_range[0], d_range[1], stride)


# ---------------------------------------------------------------------------
# Degree-2 families with Hecke eigenvalues


def _hecke_row(values: np.ndarray, weights: np.ndarray, nu_max: int) -> tuple:
    """(good, sums) of one prime's trace distribution: the weights' total
    and the power sums of the traces weighed by them."""
    # row by row, unlike BLAS b @ weights, whose summation order depends on
    # the row count: a table's first rows keep their bits for any nu_max
    return weights.sum(), np.einsum("ik,k->i", hecke_b_array(values, nu_max), weights)


class HeckeFamily(Family):
    """A degree-2 self-dual family whose members have Hecke eigenvalues.

    Subclasses serve ``_member_traces``, the members' normalized traces,
    and either ``_trace_distributions``, from which ``_rows`` builds every
    row, or rows of their own from the same ``_hecke_row``.
    """

    degree = 2

    def _trace_distributions(self, primes: np.ndarray) -> Iterator[tuple]:
        """(distinct a/sqrt p, number of good members at each) at each of
        the primes, in order."""
        raise NotImplementedError

    def _member_traces(self, members: list, primes) -> Iterator[tuple]:
        """(good, a/sqrt p, 0 where bad) of the members at each prime."""
        raise NotImplementedError

    def _member_bs(self, members, primes, nu_max):
        """The power sums of the Satake pairs with the members' traces."""
        for good, traces in self._member_traces(members, primes):
            yield good, np.where(good, hecke_b_array(traces, nu_max), 0.0)

    def _rows(self, primes: np.ndarray, nu_max: int, factor_rows=()) -> _Rows:
        """Each prime's trace distribution weighs its traces' power sums."""
        good, sums = _empty_rows(len(primes), nu_max)
        for i, distribution in enumerate(self._trace_distributions(primes)):
            good[i], sums[i] = _hecke_row(*distribution, nu_max)
        return good, sums

    def sym_power_log_conductor(self, member, power: int) -> float:
        # a degree-2 archimedean factor of weight k has log Q ~ 2 log(k/2);
        # the lift has (power + 1)/2 or power/2 such factors
        scale = (power + 1) / 2.0 if power % 2 else power / 2.0
        return scale * self.log_conductor(member)


# ---------------------------------------------------------------------------
# One-parameter elliptic-curve families


class EllipticFamily(HeckeFamily):
    """Specializations E_t: y^2 = x^3 + A(t)x + B(t) for t in a box.

    Local data at good p >= 5 comes from the character-sum trace a_t(p):
    b_t(p) = a_t(p)/sqrt(p) and the rest of the sequence by the degree-2
    power-sum recursion (so b_t(p^2) = a_t(p)^2/p - 2).  Primes 2 and 3 and
    p | Delta(t) are bad; singular fibers (Delta(t) = 0) are skipped and
    recorded.

    Conductors come from one ``family_conductors`` pass, run on first use and
    kept with the family: the per-fiber proxies serve ``log_conductor`` and
    convolutions, the prime-power counts the convolution's average.  The
    elliptic families of a pass build their rows together
    (``_rows_together``), so that a prime's context serves all of them.
    """

    def __init__(self, spec: EllipticFamilySpec):
        if spec.t_max <= spec.t_min:
            raise ValueError(
                f"the box [t_min, t_max) = [{spec.t_min}, {spec.t_max}) is empty"
            )
        self.spec = spec
        delta = [spec.discriminant(t) for t in spec.t_range]
        self.members_list = [
            t for t, dlt in zip(spec.t_range, delta) if dlt != 0
        ]
        self.singular_fibers = [
            t for t, dlt in zip(spec.t_range, delta) if dlt == 0
        ]
        if not self.members_list:
            raise ValueError("all fibers in range are singular")
        self.family_id = (
            f"ec(A={list(spec.a_coeffs)},B={list(spec.b_coeffs)},"
            f"t=[{spec.t_min},{spec.t_max}))"
        )
        self._conductors: FamilyConductors | None = None
        # its zeros mod p are the residues of the bad fibers
        self._delta = spec.delta_coeffs()

    def iter_members(self) -> Iterator[int]:
        return iter(self.members_list)

    def size(self) -> float:
        return float(len(self.members_list))

    def _member_traces(self, members, primes):
        """``residue_data(p)`` at each t mod p: a member is good where its
        residue's weight is positive, and every member is bad at p < 5."""
        for p in primes.tolist():
            if p < 5:
                yield np.zeros(len(members), dtype=bool), np.zeros(len(members))
                continue
            a, weights = self.residue_data(p)
            r = np.array([t % p for t in members], dtype=np.intp)  # t beyond int64
            good = weights[r] > 0
            yield good, np.where(good, a[r], 0) / math.sqrt(p)

    @property
    def conductors(self) -> FamilyConductors:
        """Conductor proxies and prime-power counts of every member."""
        if self._conductors is None:
            self._conductors = family_conductors(self.spec)
        return self._conductors

    def log_conductor(self, member) -> float:
        return math.log(self.conductors.proxies[member])

    def form_key(self, member) -> tuple[int, int]:
        """The minimal model of E_t: equal exactly for curves isomorphic
        over Q."""
        return minimal_model(self.spec.A(member), self.spec.B(member))

    def residue_data(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """(a_r table, member weights on good residues r mod p) for p >= 5.

        The members per residue come from the box: each residue holds
        N // p of its N parameters, the N mod p residues from t_min on one
        more.  A singular fiber needs no subtraction: Delta(t) = 0 puts it
        on a residue with Delta = 0 mod p, whose weight is 0.
        """
        [data] = _residue_data([self], p)
        return data

    def _weights(self, context: PrimeContext) -> np.ndarray:
        """The members on each residue r mod p, 0 where Delta(r) = 0 mod p:
        one Horner pass of Delta's coefficients, each step below p^2."""
        spec, p = self.spec, context.p
        n = spec.t_max - spec.t_min
        counts = np.full(p, n // p, dtype=np.int64)
        start = spec.t_min % p
        end = start + n % p
        counts[start:end] += 1
        counts[: max(0, end - p)] += 1
        return counts * (_eval_poly_mod(self._delta, context.r, p) != 0)

    def _rows(self, primes: np.ndarray, nu_max: int, factor_rows=()) -> _Rows:
        """The rows of this family alone, by ``_rows_together``."""
        [rows] = self._rows_together([(self, primes, nu_max, factor_rows)])
        return rows

    @classmethod
    def _rows_together(cls, jobs: list) -> list:
        """The rows of several elliptic families, prime by prime: at each
        prime one context and one ``ap_residue_tables`` call serve every
        family whose primes reach it (``_trace_histograms``), and are
        dropped before the next prime."""
        rows = [_empty_rows(len(primes), nu_max) for _, primes, nu_max, _ in jobs]
        longest = max((primes for _, primes, _, _ in jobs), key=len)
        for i, p in enumerate(longest.tolist()):
            live = [k for k, (_, primes, _, _) in enumerate(jobs) if i < len(primes)]
            histograms = _trace_histograms([jobs[k][0] for k in live], p)
            for k, distribution in zip(live, histograms):
                good, sums = rows[k]
                good[i], sums[i] = _hecke_row(*distribution, jobs[k][2])
        return rows


def _residue_data(fams: list, p: int) -> Iterator[tuple]:
    """``residue_data(p)`` of each elliptic family, in order, from one prime
    context and one ``ap_residue_tables`` call.

    Raises:
        FamilyError: If a family's table fails its checks.
    """
    context = PrimeContext(p)
    tables = ap_residue_tables([f.spec for f in fams], context)
    for f in fams:
        with _blamed(f):
            a = next(tables)
        yield a, f._weights(context)


def _trace_histograms(fams: list, p: int) -> Iterator[tuple]:
    """(distinct a/sqrt p, members at each) of each elliptic family at p,
    in order, weighed by ``_residue_data``; empty at p = 2, 3.

    Raises:
        FamilyError: If a family's trace violates the Hasse bound a^2 <= 4p.
    """
    if p < 5:
        yield from ((np.empty(0), np.empty(0)) for _ in fams)
        return
    off = math.isqrt(4 * p)
    for f, (a, weights) in zip(fams, _residue_data(fams, p)):
        if np.any(a * a > 4 * p):
            raise FamilyError(f, f"{f.family_id}: trace beyond 2 sqrt({p})")
        hist = np.bincount(a + off, weights=weights, minlength=2 * off + 1)
        held = np.flatnonzero(hist)
        yield (held - off) / math.sqrt(p), hist[held]


def elliptic_family(spec: EllipticFamilySpec) -> EllipticFamily:
    """Family of fiber curves of y^2 = x^3 + A(T)x + B(T) over a t-box."""
    if all(c == 0 for c in spec.a_coeffs) and all(c == 0 for c in spec.b_coeffs):
        raise ValueError("discriminant vanishes identically")
    return EllipticFamily(spec)


# ---------------------------------------------------------------------------
# The discriminant cusp form


def ramanujan_tau_table(n_max: int) -> list[int]:
    """tau(1..n_max) as exact integers, from Jacobi's identity
    prod (1 - q^n)^3 = sum_k (-1)^k (2k + 1) q^(k(k+1)/2): Delta/q is that
    series to the 8th power.

    Raises:
        ValueError: If n_max < 1.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    # (exponent, coefficient) of Jacobi's terms below q^n_max; series holds
    # the coefficients of q^0 .. q^(n_max - 1) of the product
    jacobi = [
        (k * (k + 1) // 2, (-1) ** k * (2 * k + 1))
        for k in range(math.isqrt(2 * n_max) + 1)
        if k * (k + 1) // 2 < n_max
    ]
    series = [1] + [0] * (n_max - 1)
    for _ in range(8):
        nxt = [0] * n_max
        for e, c in jacobi:
            # zip stops at the end of nxt: terms past q^(n_max - 1) drop
            nxt[e:] = [x + c * y for x, y in zip(nxt[e:], series)]
        series = nxt
    return series  # series[n-1] = tau(n)


class DeltaFamily(HeckeFamily):
    """The singleton family of the level-1 weight-12 cusp form; it keeps no
    state, so ``cusp_form_delta`` shares one instance."""

    family_id = "delta"

    def iter_members(self) -> Iterator[str]:
        return iter(("delta",))

    def _trace_distributions(self, primes):
        """tau(p) / p^(11/2) with weight 1 at each p, from one tau table
        through the last prime.

        Raises:
            ValueError: If tau(p)^2 > 4 p^11, beyond the Deligne bound.
        """
        ps = primes.tolist()
        tau = ramanujan_tau_table(ps[-1]) if ps else []
        for p in ps:
            if tau[p - 1] ** 2 > 4 * p**11:
                raise ValueError(f"tau({p}) beyond 2 p^(11/2)")
            yield np.array([tau[p - 1] / p**5.5]), np.ones(1)

    def _member_traces(self, members, primes):
        """tau(p) / p^(11/2), good at every p: one tau table per call."""
        for value, _ in self._trace_distributions(primes):
            yield np.ones(len(members), dtype=bool), np.full(len(members), value[0])

    def log_conductor(self, member) -> float:
        return weil.log_analytic_conductor(weil.disc(12))

    def sym_power_log_conductor(self, member, power: int) -> float:
        return weil.log_analytic_conductor(weil.sym_power(weil.disc(12), power))


_DELTA = DeltaFamily()


def cusp_form_delta() -> DeltaFamily:
    """The cusp form Delta: one instance, which every family may share."""
    return _DELTA


# ---------------------------------------------------------------------------
# Symmetric-power lifts


class SymLiftFamily(Family):
    """Member-wise symmetric-power lift of a ``HeckeFamily``."""

    def __init__(self, base: Family, power: int):
        if not isinstance(base, HeckeFamily):
            raise ValueError("symmetric-power lift requires a degree-2 Hecke family")
        if power < 1:
            raise ValueError("power must be positive")
        self.base = base
        self.power = power
        self.family_id = f"sym{power}({base.family_id})"
        self.degree = power + 1

    def iter_members(self):
        return self.base.iter_members()

    def _member_bs(self, members, primes, nu_max):
        """The base's matrices regrouped, their good flags as ``zero``."""
        for good, b in self.base._member_bs(members, primes, self.power * nu_max):
            yield good, sym_power_sums(b, good, self.power)

    def log_conductor(self, member) -> float:
        return self.base.sym_power_log_conductor(member, self.power)

    def form_key(self, member) -> tuple:
        """The lift of the base's form: lifts of one form in two families
        are one form."""
        return ("sym", self.power, self.base.form_key(member))

    def dual_key(self, member) -> tuple:
        return ("sym", self.power, self.base.dual_key(member))

    def _factors(self, nu_max: int) -> tuple:
        return ((self.base, self.power * nu_max),)

    def _rows(self, primes: np.ndarray, nu_max: int, factor_rows=()) -> _Rows:
        """The base's rows regrouped, their good weight as ``zero``."""
        ((good, base_sums),) = factor_rows
        return good, sym_power_sums(base_sums.T, good, self.power).T


def sym_lift(f: Family, M: int) -> Family:
    """The family of M-th symmetric powers of a degree-2 family."""
    if M == 1:
        return f
    return SymLiftFamily(f, M)


# ---------------------------------------------------------------------------
# Rankin-Selberg convolutions


class ConvolutionFamily(Family):
    """Pairs (f, g) with coefficients b_f(p^nu) * b_g(p^nu).

    A pair (f, g) whose g is the dual of f (g's ``form_key`` is f's
    ``dual_key``: a character and its conjugate, held by any families, or
    elliptic curves isomorphic over Q) has a non-cuspidal product and is
    excluded.  Aggregated moments use the product structure: the sum over
    included pairs is the product of the factor sums minus the small
    excluded correction, one member matrix of the excluded pairs per prime,
    so its rows are products of the factors' rows; ``Family._rows``, every
    pair's member matrix summed, is their reference.

    The conductor of a pair is q_f^deg(g) q_g^deg(f) (coprime levels); an
    elliptic pair instead takes the midpoint of its Rankin-Selberg conductor
    bounds.  A fixed twist f x G is the case where F = {f} has one member.
    """

    def __init__(self, left: Family, right: Family):
        self.left = left
        self.right = right
        self._ec_pair = isinstance(left, EllipticFamily) and isinstance(
            right, EllipticFamily
        )
        # right members outer, left inner: _rows subtracts the pairs in this
        # order, so it fixes the bits of the sums
        by_key: dict = {}
        for f in left.iter_members():
            by_key.setdefault(left.dual_key(f), []).append(f)
        self.excluded: list[tuple] = [
            (f, g)
            for g in right.iter_members()
            for f in by_key.get(right.form_key(g), ())
        ]
        self._excluded_set = set(self.excluded)
        self.family_id = f"({left.family_id})x({right.family_id})"
        self.degree = left.degree * right.degree

    def iter_members(self) -> Iterator[tuple]:
        for f in self.left.iter_members():
            for g in self.right.iter_members():
                if (f, g) not in self._excluded_set:
                    yield (f, g)

    def size(self) -> float:
        return self.left.size() * self.right.size() - len(self.excluded)

    def form_key(self, member) -> frozenset:
        """The set of the factors' keys: f x g and g x f are one form."""
        f, g = member
        return frozenset({self.left.form_key(f), self.right.form_key(g)})

    def dual_key(self, member) -> frozenset:
        f, g = member
        return frozenset({self.left.dual_key(f), self.right.dual_key(g)})

    def _member_bs(self, members, primes, nu_max):
        """The products of the factors' matrices; a pair is good where both
        of its members are.  A self-convolution reads both member lists from
        one call of its factor, so that a block builds its per-prime data
        (residue tables, tau) once."""
        fs, gs = [f for f, _ in members], [g for _, g in members]
        if self.left is self.right:
            k = len(fs)
            both = self.left._member_bs(fs + gs, primes, nu_max)
            pairs = (((ok[:k], b[:, :k]), (ok[k:], b[:, k:])) for ok, b in both)
        else:
            lefts = self.left._member_bs(fs, primes, nu_max)
            pairs = zip(lefts, self.right._member_bs(gs, primes, nu_max))
        for (left_good, left_b), (right_good, right_b) in pairs:
            yield left_good & right_good, left_b * right_b

    def log_conductor(self, member) -> float:
        f, g = member
        if self._ec_pair:
            lo, hi = rs_conductor_bounds(
                self.left.conductors.proxies[f], self.right.conductors.proxies[g]
            )
            return 0.5 * (math.log(lo) + math.log(hi))
        return (
            self.left.degree * self.right.log_conductor(g)
            + self.right.degree * self.left.log_conductor(f)
        )

    def average_log_conductor(self) -> float:
        if self._ec_pair:
            return avg_pair_log_conductor(self.left.conductors, self.right.conductors)
        return (
            self.left.degree * self.right.average_log_conductor()
            + self.right.degree * self.left.average_log_conductor()
        )

    def _factors(self, nu_max: int) -> tuple:
        return ((self.left, nu_max), (self.right, nu_max))

    def _rows(self, primes: np.ndarray, nu_max: int, factor_rows=()) -> _Rows:
        """The products of the factors' rows, less the excluded pairs."""
        (left_good, left_sums), (right_good, right_sums) = factor_rows
        sums = left_sums * right_sums
        good = left_good * right_good
        excluded = self._member_bs(self.excluded, primes, nu_max) if self.excluded else ()
        for k, (ok, b) in enumerate(excluded):
            # the good pairs one at a time, in their order: a pairwise np.sum
            # would move the last bit
            sums[k] = np.subtract.accumulate(np.vstack([sums[k], b.T[ok]]))[-1]
            good[k] -= np.count_nonzero(ok)
        return good, sums


def convolve(f: Family, g: Family) -> Family:
    """Rankin-Selberg convolution family, less the pairs of one form."""
    return ConvolutionFamily(f, g)


# ---------------------------------------------------------------------------
# Fixed twists: one-member families, convolved like any other factor


class KroneckerTwist(QuadraticFamily):
    """The single Kronecker character (d|.): the quadratic family of d alone.

    d must be a fundamental discriminant other than 1, so that (d|.) is
    primitive of conductor |d| and log |d| is its log-conductor.
    """

    def __init__(self, d: int):
        if d == 1 or len(fundamental_discriminants(d, d + 1)) == 0:
            raise ValueError(
                f"kronecker twist needs a fundamental discriminant other than 1, "
                f"got {d}"
            )
        super().__init__(d, d + 1)
        self.d = d
        self.family_id = f"chi({d})"

    def _rows(self, primes: np.ndarray, nu_max: int, factor_rows=()) -> _Rows:
        """The quadratic family's rows of d, from chi(p) at every prime at
        once."""
        chi = np.array([float(kronecker_symbol(self.d, p)) for p in primes.tolist()])
        sums = (chi[:, None] ** np.arange(1, nu_max + 1)).astype(np.complex128)
        return (chi != 0).astype(float), sums


class CharacterTwist(DirichletFamily):
    """The single Dirichlet character char: the Dirichlet family of its
    modulus, holding char alone as its member index - 1.

    char must be nontrivial; modulo a prime it is then primitive, and
    log modulus is its log-conductor.
    """

    # orthogonality needs every character mod m; one character sums its own
    # coefficients
    _rows = Family._rows

    def __init__(self, char: DirichletCharacter):
        if char.is_trivial:
            raise ValueError(
                f"character {char.index} mod {char.modulus} is trivial; "
                "a twist needs a nontrivial character"
            )
        super().__init__(char.modulus)
        self.char = char
        self.family_id = f"chi_{char.modulus}^{char.index}"

    def iter_members(self) -> Iterator[int]:
        return iter((self.char.index - 1,))


def kronecker_twist(d: int) -> KroneckerTwist:
    return KroneckerTwist(d)


def character_twist(modulus: int, index: int) -> CharacterTwist:
    """The one-member family of character ``index`` modulo a prime."""
    return CharacterTwist(dirichlet_character(modulus, index))


class TwistedFamily(ConvolutionFamily):
    """``convolve(h, g)``: the one-member family h against all of g.

    Adds no behaviour; the class keeps a twisted family's kind nameable for
    per-class tooling (the benchmark tracer).
    """


def twist_by_fixed(h: Family, g: Family) -> TwistedFamily:
    """Twist every member of g by the fixed form h, a one-member family.

    Members are the pairs (h's member, g's member).
    """
    return TwistedFamily(h, g)
