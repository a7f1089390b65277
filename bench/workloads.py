"""Seeded workload definitions for the lfsym benchmark.

Each workload is a config for the ``lfsym constants`` and ``lfsym density``
commands (the JSON shape that ``lfsym.cli.load_config`` accepts), plus the
symmetry class the paper predicts for each family and the output gate the
benchmark applies to every command.

The seed moves only box offsets, the discriminant window and the Dirichlet
modulus.  Box sizes, prime cutoffs and window widths are fixed, so the cost
of a run does not depend on the seed.  ``size="smoke"`` gives a scaled-down
copy of each workload that runs in seconds, for the benchmark's own tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Each EC box offset is drawn from [0, EC_OFFSET_SPAN): a shift of at most 5%
# of an ec_pair box and 33% of an ec_wide_box box, so every seed samples the
# same region of the family.
EC_OFFSET_SPAN = 100
DISC_OFFSET_SPAN = 2000
# Primes near 2000 for the Dirichlet modulus; m^2 (the cost of
# characters_mod) varies by under 5% across the list.
DIRICHLET_MODULI = (1993, 1997, 1999, 2003, 2011, 2017, 2027, 2029, 2039)
SMOKE_DIRICHLET_MODULI = (191, 193, 197, 199, 211)

SIZES = ("full", "smoke")


@dataclass
class Workload:
    """A seeded experiment config and what its outputs must satisfy.

    Attributes:
        name: Workload name as given to ``--workload``.
        config: JSON-shaped lfsym config ({"run": ..., "families": [...]}).
        predicted: family id -> symmetry class the paper predicts (-1, 0, +1).
            ``c_error_max`` is taken over these families.
        gated: family ids whose ``c_class`` must equal the prediction.
        products: (convolution, left, right) ids whose product relation
            ``|c_conv - c_left c_right| <= 0.2`` and ``|r_conv| <= 0.2``
            must hold.
        sizes: human-readable input sizes for the report.
    """

    name: str
    config: dict
    predicted: dict[str, int]
    gated: tuple[str, ...]
    products: tuple[tuple[str, str, str], ...] = ()
    sizes: dict = field(default_factory=dict)


def _run(primes: int) -> dict:
    return {
        "primes": primes,
        "sigma": 1.0,
        "nu_max": 10,
        "tolerance": 0.2,
        "threads": 1,
    }


def _elliptic(ident: str, a_poly: str, b_poly: str, t_min: int, n: int) -> dict:
    return {
        "id": ident,
        "kind": "elliptic",
        "a_poly": a_poly,
        "b_poly": b_poly,
        "t_min": t_min,
        "t_max": t_min + n,
    }


def ec_pair(seed: int, size: str = "full") -> Workload:
    """The acceptance pair y^2 = x^3 + Tx + 1 and y^2 = x^3 + Sx + 2."""
    rng = random.Random(f"ec_pair/{seed}")
    n, t_base, primes = (2000, 2000, 2000) if size == "full" else (150, 2000, 300)
    t0 = t_base + rng.randrange(EC_OFFSET_SPAN)
    s0 = t_base + rng.randrange(EC_OFFSET_SPAN)
    families = [
        _elliptic("ec1", "0 1", "1", t0, n),
        _elliptic("ec2", "0 1", "2", s0, n),
        {"id": "product", "kind": "convolve", "left": "ec1", "right": "ec2"},
        {"id": "kron5", "kind": "twist", "twist": "kronecker 5", "base": "ec1"},
        {"id": "sextic", "kind": "twist", "twist": "character 7 1", "base": "ec1"},
    ]
    return Workload(
        name="ec_pair",
        config={"run": _run(primes), "families": families},
        predicted={"ec1": -1, "ec2": -1, "product": 1, "kron5": -1, "sextic": 0},
        gated=("ec1", "ec2", "product"),
        products=(("product", "ec1", "ec2"),),
        sizes={
            "members": n,
            "ec1.t": [t0, t0 + n],
            "ec2.t": [s0, s0 + n],
            "P": primes,
            "sigma": 1.0,
        },
    )


def characters(seed: int, size: str = "full") -> Workload:
    """Quadratic characters near 10^6, a fixed twist, and characters mod m."""
    rng = random.Random(f"characters/{seed}")
    if size == "full":
        width, d_base, primes, moduli = 10000, 10**6, 15000, DIRICHLET_MODULI
    else:
        width, d_base, primes, moduli = 3000, 10**6, 3000, SMOKE_DIRICHLET_MODULI
    d0 = d_base + rng.randrange(DISC_OFFSET_SPAN)
    modulus = rng.choice(moduli)
    families = [
        {"id": "discs", "kind": "quadratic", "d_min": d0, "d_max": d0 + width},
        {"id": "discs_m4", "kind": "twist", "twist": "kronecker -4", "base": "discs"},
        {"id": "chars", "kind": "dirichlet", "modulus": modulus},
    ]
    return Workload(
        name="characters",
        config={"run": _run(primes), "families": families},
        predicted={"discs": 1, "discs_m4": 1, "chars": 0},
        gated=("discs", "discs_m4", "chars"),
        sizes={
            "discriminant_window": [d0, d0 + width],
            "dirichlet_modulus": modulus,
            "P": primes,
            "sigma": 1.0,
        },
    )


def ec_wide_box(seed: int, size: str = "full") -> Workload:
    """A linear and a degree-2 family near t = 2*10^4 at a small cutoff."""
    rng = random.Random(f"ec_wide_box/{seed}")
    n, t_base, primes = (300, 20000, 400) if size == "full" else (120, 20000, 300)
    t0 = t_base + rng.randrange(EC_OFFSET_SPAN)
    s0 = t_base + rng.randrange(EC_OFFSET_SPAN)
    families = [
        _elliptic("lin", "0 1", "1", t0, n),
        _elliptic("quad", "0 1", "1 0 1", s0, n),
        {"id": "product", "kind": "convolve", "left": "lin", "right": "quad"},
        {"id": "sym2", "kind": "sym_lift", "base": "quad", "power": 2},
        {"id": "kron5", "kind": "twist", "twist": "kronecker 5", "base": "quad"},
    ]
    return Workload(
        name="ec_wide_box",
        config={"run": _run(primes), "families": families},
        predicted={"lin": -1, "quad": -1, "product": 1, "sym2": 1, "kron5": -1},
        gated=("lin", "quad", "product"),
        products=(("product", "lin", "quad"),),
        sizes={
            "members": n,
            "lin.t": [t0, t0 + n],
            "quad.t": [s0, s0 + n],
            "P": primes,
            "sigma": 1.0,
        },
    )


WORKLOADS = {"ec_pair": ec_pair, "characters": characters, "ec_wide_box": ec_wide_box}


def make(name: str, seed: int, size: str = "full") -> Workload:
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return WORKLOADS[name](seed, size)
