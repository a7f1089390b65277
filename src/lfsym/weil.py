"""Exact algebra of admissible representations of the Weil group of R.

The Weil group of R is C^x united with j*C^x (j^2 = -1, j z j^{-1} = zbar).
Its irreducible admissible representations are the one-dimensional [+,t] and
[-,t] and the two-dimensional [k,t] (k >= 2); every admissible representation
is a direct sum of these.  This module implements tensor products, symmetric
and exterior powers, epsilon factors, gamma factors and log analytic
conductors, all in exact arithmetic (twists are rationals, epsilon factors
are exponents of i).

A numeric character oracle is included: every claimed decomposition can be
checked by evaluating characters at points of both cosets of the group.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

TwistLike = Union[int, Fraction]

__all__ = [
    "WeilIrr",
    "WeilRep",
    "GammaFactor",
    "plus",
    "minus",
    "disc",
    "tensor",
    "sym_power",
    "wedge2",
    "epsilon_exponent",
    "epsilon_factor",
    "gamma_factor",
    "log_analytic_conductor",
    "convolution_root_number",
    "irr_character",
    "rep_character",
    "sym_power_character",
    "wedge2_character",
]

PLUS = "plus"
MINUS = "minus"
DISC = "disc"

# Character of [-,t] on the j-coset carries a sign not pinned by the defining
# data alone; -1 is the choice consistent with every tensor/sym identity at
# once (e.g. [-]x[-] = [+] forces chi(j)^2 = +1 together with sym^2[-] = [+]).
# The test suite checks that the opposite choice breaks those identities.
MINUS_J_SIGN = -1.0


@dataclass(frozen=True, order=True)
class WeilIrr:
    """An irreducible: kind in {plus, minus, disc}, weight k (disc only), twist."""

    kind: str
    k: int
    twist: Fraction

    def __post_init__(self) -> None:
        if self.kind not in (PLUS, MINUS, DISC):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == DISC and self.k < 2:
            raise ValueError("discrete-series weight must be >= 2")
        if self.kind != DISC and self.k != 0:
            raise ValueError("one-dimensionals carry no weight")

    @property
    def dimension(self) -> int:
        return 2 if self.kind == DISC else 1

    def __str__(self) -> str:
        sym = {PLUS: "+", MINUS: "-"}.get(self.kind, str(self.k))
        return f"[{sym},{self.twist}]" if self.twist else f"[{sym}]"


def plus(twist: TwistLike = 0) -> WeilIrr:
    return WeilIrr(PLUS, 0, Fraction(twist))


def minus(twist: TwistLike = 0) -> WeilIrr:
    return WeilIrr(MINUS, 0, Fraction(twist))


def disc(k: int, twist: TwistLike = 0) -> WeilIrr:
    return WeilIrr(DISC, k, Fraction(twist))


def _one_dim(sign_is_plus: bool, twist: Fraction) -> WeilIrr:
    return WeilIrr(PLUS if sign_is_plus else MINUS, 0, twist)


def _disc_or_split(k: int, twist: Fraction) -> tuple[WeilIrr, ...]:
    """[k,t] for k >= 2; the reducible [1,t] is normalized to [+,t] + [-,t]."""
    if k >= 2:
        return (WeilIrr(DISC, k, twist),)
    if k == 1:
        return (WeilIrr(PLUS, 0, twist), WeilIrr(MINUS, 0, twist))
    raise ValueError(f"invalid weight {k}")


class WeilRep:
    """A finite multiset of irreducibles in canonical (sorted) form."""

    __slots__ = ("_items",)

    def __init__(self, irreps: Iterable[WeilIrr] = ()) -> None:
        counts: dict[WeilIrr, int] = {}
        for x in irreps:
            if isinstance(x, WeilRep):
                raise TypeError("pass irreducibles, not a WeilRep")
            counts[x] = counts.get(x, 0) + 1
        self._items = tuple(sorted(counts.items(), key=lambda kv: _sort_key(kv[0])))

    @property
    def items(self) -> tuple[tuple[WeilIrr, int], ...]:
        return self._items

    def constituents(self) -> list[WeilIrr]:
        """Irreducibles with multiplicity, in canonical order."""
        out: list[WeilIrr] = []
        for irr, mult in self._items:
            out.extend([irr] * mult)
        return out

    @property
    def dimension(self) -> int:
        return sum(irr.dimension * mult for irr, mult in self._items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeilRep) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __str__(self) -> str:
        if not self._items:
            return "0"
        return " (+) ".join(str(x) for x in self.constituents())

    __repr__ = __str__


def _sort_key(irr: WeilIrr):
    # discrete series first (descending weight), then [+], then [-]
    rank = {DISC: 0, PLUS: 1, MINUS: 2}[irr.kind]
    return (rank, -irr.k, irr.twist)


def as_rep(x: Union[WeilIrr, WeilRep]) -> WeilRep:
    return x if isinstance(x, WeilRep) else WeilRep([x])


# ---------------------------------------------------------------------------
# Operations


def _tensor_irr(x: WeilIrr, y: WeilIrr) -> tuple[WeilIrr, ...]:
    t = x.twist + y.twist
    if x.kind != DISC and y.kind != DISC:
        return (_one_dim((x.kind == MINUS) == (y.kind == MINUS), t),)
    if x.kind != DISC:
        return (WeilIrr(DISC, y.k, t),)
    if y.kind != DISC:
        return (WeilIrr(DISC, x.k, t),)
    hi, lo = max(x.k, y.k), min(x.k, y.k)
    return _disc_or_split(hi + lo - 1, t) + _disc_or_split(hi - lo + 1, t)


def tensor(x: Union[WeilIrr, WeilRep], y: Union[WeilIrr, WeilRep]) -> WeilRep:
    """Tensor product, extended bilinearly over direct sums."""
    pieces: list[WeilIrr] = []
    for a in as_rep(x).constituents():
        for b in as_rep(y).constituents():
            pieces.extend(_tensor_irr(a, b))
    return WeilRep(pieces)


def sym_power(x: WeilIrr, m: int) -> WeilRep:
    """m-th symmetric power of an irreducible (m >= 1).

    sym^m[+,t] = [+,mt];  sym^m[-,t] = [(-)^m, mt];
    sym^{2m+1}[k,t] = sum_{l=0}^{m} [(2l+1)(k-1)+1, (2m+1)t];
    sym^{2m}[k,t]  = [(-)^{m(k-1)}, 2mt] + sum_{l=1}^{m} [2l(k-1)+1, 2mt].
    """
    if not isinstance(x, WeilIrr):
        raise TypeError("symmetric powers are defined here for irreducibles only")
    if m < 1:
        raise ValueError("m must be positive")
    t = m * x.twist
    if x.kind == PLUS:
        return WeilRep([_one_dim(True, t)])
    if x.kind == MINUS:
        return WeilRep([_one_dim(m % 2 == 0, t)])
    k = x.k
    if m % 2 == 1:
        half = (m - 1) // 2
        return WeilRep(
            [WeilIrr(DISC, (2 * ell + 1) * (k - 1) + 1, t) for ell in range(half + 1)]
        )
    half = m // 2
    pieces = [_one_dim((half * (k - 1)) % 2 == 0, t)]
    pieces.extend(WeilIrr(DISC, 2 * ell * (k - 1) + 1, t) for ell in range(1, half + 1))
    return WeilRep(pieces)


def wedge2(x: WeilIrr) -> WeilRep:
    """Exterior square of a discrete-series irreducible: [(-)^k, 2t]."""
    if not isinstance(x, WeilIrr) or x.kind != DISC:
        raise ValueError("wedge2 requires a two-dimensional irreducible")
    return WeilRep([_one_dim(x.k % 2 == 0, 2 * x.twist)])


def epsilon_exponent(x: Union[WeilIrr, WeilRep]) -> int:
    """Exponent e (mod 4) with epsilon = i^e; multiplicative over summands.

    epsilon([+,t]) = 1, epsilon([-,t]) = i, epsilon([k,t]) = i^k.
    """
    e = 0
    for irr in as_rep(x).constituents():
        if irr.kind == MINUS:
            e += 1
        elif irr.kind == DISC:
            e += irr.k
    return e % 4


def epsilon_factor(x: Union[WeilIrr, WeilRep]) -> complex:
    """The root number as an exact power of i."""
    return (1, 1j, -1, -1j)[epsilon_exponent(x)]


@dataclass(frozen=True)
class GammaFactor:
    """Archimedean L-factor as shift lists: prod GammaR(s + a) * GammaC(s + b).

    Shifts are exact rationals; a GammaC factor counts dimension 2.
    """

    real_shifts: tuple[Fraction, ...]
    complex_shifts: tuple[Fraction, ...]

    @property
    def dimension(self) -> int:
        return len(self.real_shifts) + 2 * len(self.complex_shifts)


def gamma_factor(x: Union[WeilIrr, WeilRep]) -> GammaFactor:
    """Gamma-shift data: [+,t] -> GammaR(s+t), [-,t] -> GammaR(s+t+1),
    [k,t] -> GammaC(s + t + (k-1)/2)."""
    real: list[Fraction] = []
    cplx: list[Fraction] = []
    for irr in as_rep(x).constituents():
        if irr.kind == PLUS:
            real.append(irr.twist)
        elif irr.kind == MINUS:
            real.append(irr.twist + 1)
        else:
            cplx.append(irr.twist + Fraction(irr.k - 1, 2))
    return GammaFactor(tuple(sorted(real)), tuple(sorted(cplx)))


def log_analytic_conductor(x: Union[WeilIrr, WeilRep]) -> float:
    """Log of the archimedean conductor.

    Each GammaR(s+T) contributes a factor T/2 and each GammaC(s+T) a factor
    T(T+1)/4; factors below 1 are floored at 1 (they only shift the
    asymptotics by O(1)).

    Raises:
        ValueError: If any shift is negative.
    """
    g = gamma_factor(x)
    total = 0.0
    for t in g.real_shifts:
        if t < 0:
            raise ValueError(f"negative gamma shift {t}")
        total += math.log(max(float(t) / 2.0, 1.0))
    for t in g.complex_shifts:
        if t < 0:
            raise ValueError(f"negative gamma shift {t}")
        total += math.log(max(float(t) * (float(t) + 1.0) / 4.0, 1.0))
    return total


def convolution_root_number(
    m: int, n: int, parities: tuple[str, str], k: int
) -> int:
    """Root number of sym^A[k] (x) sym^B[k] in closed form, k even.

    A = 2m+1 or 2m and B = 2n+1 or 2n according to ``parities``.  Equal
    parities give +1; for mixed parity (odd index mo, even index ne) the sign
    is (-1)^((mo+1)(ne-mo) + (mo+1)^2 k/2) when mo < ne and
    (-1)^((mo-ne)(mo+ne+1)/2 + (mo+1)^2 k/2) when mo >= ne.
    """
    if k < 2 or k % 2:
        raise ValueError("k must be an even integer >= 2")
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    pm, pn = parities
    if pm not in ("odd", "even") or pn not in ("odd", "even"):
        raise ValueError(f"parities must be 'odd'/'even', got {parities}")
    if pm == pn:
        return 1
    mo, ne = (m, n) if pm == "odd" else (n, m)
    if mo < ne:
        expo = (mo + 1) * (ne - mo) + (mo + 1) ** 2 * (k // 2)
    else:
        expo = (mo - ne) * (mo + ne + 1) // 2 + (mo + 1) ** 2 * (k // 2)
    return -1 if expo % 2 else 1


# ---------------------------------------------------------------------------
# Numeric character oracle
#
# Group elements are parametrized as z = r e^{i theta} (z-coset) or j*z
# (j-coset).  Characters: [+,t] is (z zbar)^t = r^{2t} on both cosets;
# [-,t] is r^{2t} on C^x and MINUS_J_SIGN * r^{2t} on the j-coset; [k,t] is
# r^{2t} * 2 cos((k-1) theta) on C^x and 0 on the j-coset.


def irr_character(irr: WeilIrr, r: float, theta: float, j_coset: bool) -> complex:
    rt = float(r) ** (2.0 * float(irr.twist))
    if irr.kind == PLUS:
        return complex(rt)
    if irr.kind == MINUS:
        return complex(MINUS_J_SIGN * rt if j_coset else rt)
    if j_coset:
        return 0j
    return rt * 2.0 * cmath.cos((irr.k - 1) * theta)


def rep_character(
    x: Union[WeilIrr, WeilRep], r: float, theta: float, j_coset: bool
) -> complex:
    return sum(
        mult * irr_character(irr, r, theta, j_coset)
        for irr, mult in as_rep(x).items
    )


def sym_power_character(
    irr: WeilIrr, m: int, r: float, theta: float, j_coset: bool
) -> complex:
    """Character of sym^m(irr) computed from eigenvalues, not the decomposition.

    For a one-dimensional this is chi^m.  For [k,t] on C^x the eigenvalues of
    the acting matrix are r^{2t} e^{+-i(k-1)theta} and the sym^m character is
    the complete homogeneous sum; on the j-coset the matrix squares to the
    scalar (-1)^{k-1} r^{4t}, its eigenvalues are {lam, -lam}, and the
    character is lam^m for even m (0 for odd m).
    """
    if irr.kind != DISC:
        return irr_character(irr, r, theta, j_coset) ** m
    rt = float(r) ** (2.0 * float(irr.twist))
    if j_coset:
        if m % 2:
            return 0j
        lam = (1j ** (irr.k - 1)) * rt
        return lam**m
    a = rt * cmath.exp(1j * (irr.k - 1) * theta)
    b = rt * cmath.exp(-1j * (irr.k - 1) * theta)
    return sum(a ** (m - j) * b**j for j in range(m + 1))


def wedge2_character(
    irr: WeilIrr, r: float, theta: float, j_coset: bool
) -> complex:
    """Character of wedge^2(irr) for a discrete-series irr, from eigenvalues."""
    if irr.kind != DISC:
        raise ValueError("wedge2 character requires a two-dimensional input")
    rt = float(r) ** (2.0 * float(irr.twist))
    if not j_coset:
        # product of the two eigenvalues
        return complex(rt * rt)
    # (chi(g)^2 - chi(g^2)) / 2 with chi(g) = 0 and g^2 = -r^2 in C^x
    g2 = (rt * rt) * 2.0 * ((-1.0) ** (irr.k - 1))
    return complex(-g2 / 2.0)
