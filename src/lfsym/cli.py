"""Command-line runner: declare families in a config, run experiments.

Subcommands:
    constants   estimate (c, epsilon, r) for every declared family
    density     empirical vs predicted 1-level density per family
    convolve    shorthand: constants for two families and their convolution
    weil        evaluate expressions in the archimedean representation algebra
    rmt-table   closed-form density predictions on a (group, sigma, rank) grid
    ec-scan     per-prime second-moment ratios and rank partial sums

Configs are flat key-table UTF-8 INI files ([run] section plus one
[family ID] section per family); JSON with the same shape ("run" and
"families") is accepted.  Any other section or top-level key, a key outside
``RunSettings`` or ``FAMILY_OPTIONS``, and an integer field given anything
but an integer are errors.  Output is deterministic: fixed row order, floats
printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import families as fam_mod
from . import rmt, stats, weil
from .arith import sieve_primes
from .ecgeom import EllipticFamilySpec, residue_moments

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4


class ConfigError(Exception):
    pass


def fmt(x) -> str:
    """Deterministic scalar formatting: 12 significant digits for floats."""
    if isinstance(x, float):
        return f"{x:.12g}"
    if x is None:
        return ""
    return str(x)


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class RunSettings:
    """The [run] keys of a config, with their defaults."""

    primes: int = 1000
    sigma: float = 1.0
    nu_max: int = 10
    tolerance: float = 0.2
    check_tolerance: float = 0.2
    threads: int = 1
    log_r: Optional[float] = None

    def validate(self) -> None:
        """Reject settings no experiment can run with."""
        if self.primes < 2:
            raise ConfigError(f"primes must be at least 2, got {self.primes}")
        # NaN fails every comparison, so each guard asks for the valid case
        for name in ("sigma", "tolerance", "check_tolerance"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.nu_max < 1:
            raise ConfigError(f"nu_max must be at least 1, got {self.nu_max}")
        if self.threads < 1:
            raise ConfigError(f"threads must be at least 1, got {self.threads}")
        if self.log_r is not None and not (
            self.log_r > 0 and math.isfinite(self.log_r)
        ):
            raise ConfigError(f"log_r must be positive and finite, got {self.log_r}")


@dataclass
class FamilyDecl:
    ident: str
    kind: str
    options: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    run: RunSettings
    declarations: list[FamilyDecl]

    def resolve(self) -> dict[str, fam_mod.Family]:
        """Instantiate declared families; references resolve in order.

        Every ``delta`` family and ``delta`` twist is ``cusp_form_delta()``,
        one stateless instance, so one pass computes its rows once.
        """
        built: dict[str, fam_mod.Family] = {}
        pending = list(self.declarations)
        progress = True
        while pending and progress:
            progress = False
            remaining = []
            for decl in pending:
                try:
                    built[decl.ident] = _build_family(decl, built)
                    progress = True
                except _Unresolved:
                    remaining.append(decl)
                except (ValueError, TypeError) as exc:
                    raise ConfigError(f"family {decl.ident!r}: {exc}") from exc
            pending = remaining
        if pending:
            missing = ", ".join(d.ident for d in pending)
            raise ConfigError(f"unresolved family references in: {missing}")
        return built


class _Unresolved(Exception):
    pass


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in str(text).replace(",", " ").split())


def _int(value, name: str) -> int:
    """An integer field, from a JSON integer or the text of one; a bool or a
    JSON float is rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _float(value, name: str) -> float:
    """A float field, from a JSON number or the text of one; a bool is
    rejected, not read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


FAMILY_OPTIONS = {
    "dirichlet": {"modulus"},
    "quadratic": {"d_min", "d_max", "stride"},
    "elliptic": {"a_poly", "b_poly", "t_min", "t_max"},
    "delta": set(),
    "sym_lift": {"base", "power"},
    "convolve": {"left", "right"},
    "twist": {"base", "twist"},
}


def _build_family(decl: FamilyDecl, built: dict) -> fam_mod.Family:
    kind = decl.kind
    opt = decl.options
    if kind not in FAMILY_OPTIONS:
        raise ConfigError(f"family {decl.ident!r}: unknown kind {kind!r}")
    for key in opt:
        if key not in FAMILY_OPTIONS[kind]:
            raise ConfigError(f"family {decl.ident!r}: unknown option {key!r}")
    try:
        if kind == "dirichlet":
            return fam_mod.dirichlet_family(_int(opt["modulus"], "modulus"))
        if kind == "quadratic":
            return fam_mod.quadratic_family(
                (_int(opt["d_min"], "d_min"), _int(opt["d_max"], "d_max")),
                stride=_int(opt.get("stride", 1), "stride"),
            )
        if kind == "elliptic":
            spec = EllipticFamilySpec(
                a_coeffs=_ints(opt["a_poly"]),
                b_coeffs=_ints(opt["b_poly"]),
                t_min=_int(opt["t_min"], "t_min"),
                t_max=_int(opt["t_max"], "t_max"),
            )
            return fam_mod.elliptic_family(spec)
        if kind == "delta":
            return fam_mod.cusp_form_delta()
        if kind == "sym_lift":
            base = opt["base"]
            if base not in built:
                raise _Unresolved(base)
            return fam_mod.sym_lift(built[base], _int(opt["power"], "power"))
        if kind == "convolve":
            left, right = opt["left"], opt["right"]
            if left not in built or right not in built:
                raise _Unresolved(left)
            return fam_mod.convolve(built[left], built[right])
        if kind == "twist":
            base = opt["base"]
            if base not in built:
                raise _Unresolved(base)
            return fam_mod.twist_by_fixed(_build_twist(opt["twist"]), built[base])
    except KeyError as exc:
        raise ConfigError(f"family {decl.ident!r}: missing option {exc}") from exc


def _build_twist(text: str) -> fam_mod.Family:
    kind, *rest = str(text).split() or [""]
    args = [int(tok) for tok in rest]
    if kind == "kronecker" and len(args) == 1:
        return fam_mod.kronecker_twist(*args)
    if kind == "character" and len(args) == 2:
        return fam_mod.character_twist(*args)
    if kind == "delta" and not args:
        return fam_mod.cusp_form_delta()
    raise ValueError(
        f"bad twist spec {text!r}: expected 'kronecker D', "
        "'character MODULUS INDEX' or 'delta'"
    )


def load_config(path: str) -> ExperimentConfig:
    """Parse an INI or JSON config.

    Raises:
        ConfigError: If the file is malformed or a value has the wrong type.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        if path.endswith(".json") or text.lstrip().startswith("{"):
            return _config_from_dict(json.loads(text))
        parser = configparser.ConfigParser()
        parser.read_string(text)
        data: dict = {"run": dict(parser["run"]) if "run" in parser else {}}
        data["families"] = []
        for section in parser.sections():
            if section == "run":
                continue
            parts = section.split(None, 1)
            if len(parts) != 2 or parts[0] != "family":
                raise ConfigError(
                    f"unknown section [{section}]: expected [run] or [family ID]"
                )
            data["families"].append({"id": parts[1], **parser[section]})
        return _config_from_dict(data)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (ValueError, TypeError, AttributeError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _config_from_dict(data: dict) -> ExperimentConfig:
    for key in data:
        if key not in ("run", "families"):
            raise ConfigError(f"unknown top-level key {key!r}")
    defaults = vars(RunSettings())
    values = {}
    for key, value in data.get("run", {}).items():
        if key not in defaults:
            raise ConfigError(f"unknown run key {key!r}")
        # log_r, the one field that defaults to None, holds a float
        is_int = isinstance(defaults[key], int)
        values[key] = _int(value, key) if is_int else _float(value, key)
    run = RunSettings(**values)
    decls = []
    for raw in data.get("families", []):
        raw = dict(raw)
        ident = raw.pop("id")
        kind = raw.pop("kind")
        # the id is a CSV field of every output row, written unquoted
        if not isinstance(ident, str) or not ident or set(ident) & set(',"\r\n'):
            raise ConfigError(
                f"family id {ident!r} must be a nonempty string without "
                "commas, double quotes or line breaks"
            )
        decls.append(FamilyDecl(ident=ident, kind=kind, options=raw))
    if len({d.ident for d in decls}) != len(decls):
        raise ConfigError("duplicate family ids")
    run.validate()
    return ExperimentConfig(run=run, declarations=decls)


# ---------------------------------------------------------------------------
# Experiment runners


CONSTANT_COLUMNS = [
    "family_id",
    "sigma",
    "P",
    "c_est",
    "c_class",
    "r_est",
    "eps",
    "log_r",
    "bad_mass",
    "product_check",
]

DENSITY_COLUMNS = [
    "family_id",
    "sigma",
    "P",
    "c_est",
    "c_class",
    "r_est",
    "eps",
    "D1_emp",
    "D1_pred",
    "nu3_tail",
    "d1_bad_mass",
]


def _class_label(value: Optional[int]) -> str:
    return "indeterminate" if value is None else str(value)


def _eps_label(value: Optional[int]) -> str:
    return "unknown" if value is None else str(value)


@contextmanager
def _reported_as_config_error(what: str):
    """Turn a ValueError from bad input, such as a log R of 0 for the family
    {d = 1}, into a one-line ConfigError naming where it came from."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def run_families(config: ExperimentConfig) -> list[dict]:
    """One row per declared family with the columns of every command.

    Every family's c, r and 1-level density come from one
    ``family_constants`` call; a convolution also gets the product of its
    factors' c estimates.
    """
    built = config.resolve()
    run = config.run
    phi = rmt.fejer_test_function(run.sigma)
    cfg = stats.ConstantConfig(
        phi=phi,
        prime_cutoff=run.primes,
        tolerance=run.tolerance,
        log_r=run.log_r,
        nu_max=run.nu_max,
    )

    try:
        estimates = stats.family_constants(list(built.values()), cfg, run.threads)
    except fam_mod.FamilyError as exc:
        ident = next(i for i, f in built.items() if f is exc.family)
        raise ConfigError(f"family {ident!r}: {exc}") from exc
    results = dict(zip(built, estimates))

    rows = []
    for decl in config.declarations:
        fc = results[decl.ident]
        rep = fc.density
        product = ""
        if decl.kind == "convolve":
            left, right = (results[decl.options[side]] for side in ("left", "right"))
            product = fmt(left.c_estimate * right.c_estimate)
        rows.append(
            {
                "family_id": decl.ident,
                "sigma": fmt(run.sigma),
                "P": str(run.primes),
                "c_est": fmt(fc.c_estimate),
                "c_class": _class_label(fc.c_class),
                "r_est": fmt(fc.rank_estimate),
                "eps": _eps_label(fc.epsilon),
                "log_r": fmt(fc.log_r),
                "bad_mass": fmt(fc.bad_mass),
                "product_check": product,
                "D1_emp": fmt(rep.empirical),
                "D1_pred": fmt(rep.predicted),
                "nu3_tail": fmt(rep.breakdown["tail"]),
                "d1_bad_mass": fmt(rep.bad_prime_mass),
            }
        )
    return rows


def rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(row.get(c, "") for c in columns))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Weil expression mini-language

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<tensor>\(\*\))|(?P<sym>sym\^\d+)|(?P<name>wedge2|eps|gamma|logcond)"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<lbrack>\[)|(?P<rbrack>\])"
    r"|(?P<comma>,)|(?P<rational>-?\d+(?:/\d+)?)|(?P<sign>[+-]))"
)


class WeilParseError(ValueError):
    pass


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                raise WeilParseError(f"parse error at position {pos}: {text[pos:]!r}")
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.idx = 0

    def peek(self):
        return self.items[self.idx] if self.idx < len(self.items) else (None, "", len(self.text))

    def next(self, expect: Optional[str] = None):
        kind, value, pos = self.peek()
        if expect and kind != expect:
            raise WeilParseError(
                f"parse error at position {pos}: expected {expect}, got {value!r}"
            )
        self.idx += 1
        return kind, value, pos


def _parse_atom(tok: _Tokens) -> weil.WeilRep:
    tok.next("lbrack")
    kind, value, pos = tok.next()
    twist = Fraction(0)
    if kind == "sign":
        base = weil.plus if value == "+" else weil.minus
        maker = lambda t: weil.WeilRep([base(t)])
    elif kind == "rational":
        if "/" in value or int(value) < 1:
            raise WeilParseError(f"invalid weight {value} at position {pos}")
        k = int(value)
        if k == 1:
            maker = lambda t: weil.WeilRep([weil.plus(t), weil.minus(t)])
        else:
            maker = lambda t: weil.WeilRep([weil.disc(k, t)])
    else:
        raise WeilParseError(f"parse error at position {pos}: bad atom")
    if tok.peek()[0] == "comma":
        tok.next()
        _, tval, tpos = tok.next("rational")
        try:
            twist = Fraction(tval)
        except ZeroDivisionError:
            raise WeilParseError(f"zero denominator at position {tpos}") from None
    tok.next("rbrack")
    return maker(twist)


def _single_irreducible(rep: weil.WeilRep, what: str) -> weil.WeilIrr:
    cons = rep.constituents()
    if len(cons) != 1:
        raise WeilParseError(f"{what} requires an irreducible input, got {rep}")
    return cons[0]


def _parse_factor(tok: _Tokens) -> weil.WeilRep:
    kind, value, pos = tok.peek()
    if kind == "lbrack":
        return _parse_atom(tok)
    if kind == "sym":
        tok.next()
        m = int(value.split("^")[1])
        if m < 1:
            raise WeilParseError(f"{value} at position {pos}: power must be positive")
        tok.next("lparen")
        inner = _parse_expr(tok)
        tok.next("rparen")
        return weil.sym_power(_single_irreducible(inner, value), m)
    if kind == "name" and value == "wedge2":
        tok.next()
        tok.next("lparen")
        inner = _parse_expr(tok)
        tok.next("rparen")
        irr = _single_irreducible(inner, "wedge2")
        if irr.kind != weil.DISC:
            raise WeilParseError("wedge2 of a one-dimensional representation")
        return weil.wedge2(irr)
    if kind == "lparen":
        tok.next()
        inner = _parse_expr(tok)
        tok.next("rparen")
        return inner
    raise WeilParseError(f"parse error at position {pos}: unexpected {value!r}")


def _parse_expr(tok: _Tokens) -> weil.WeilRep:
    rep = _parse_factor(tok)
    while tok.peek()[0] == "tensor":
        tok.next()
        rep = weil.tensor(rep, _parse_factor(tok))
    return rep


_EPS_LABEL = {0: "+1", 1: "i", 2: "-1", 3: "-i"}


def _shifted_s(t: Fraction) -> str:
    return f"s+{t}" if t >= 0 else f"s-{-t}"


def evaluate_weil_expression(text: str) -> dict:
    """Evaluate the mini-language; returns {'kind', 'text', 'value'}.

    ``gamma`` takes any rational shifts; ``logcond`` needs every gamma shift
    to be non-negative and rejects a negative one with WeilParseError.
    """
    tok = _Tokens(text)
    kind, value, _ = tok.peek()
    query = None
    if kind == "name" and value in ("eps", "gamma", "logcond"):
        query = value
        tok.next()
        tok.next("lparen")
        rep = _parse_expr(tok)
        tok.next("rparen")
    else:
        rep = _parse_expr(tok)
    if tok.peek()[0] is not None:
        _, value, pos = tok.peek()
        raise WeilParseError(f"parse error at position {pos}: trailing {value!r}")
    if query is None:
        return {"kind": "decomposition", "text": str(rep), "value": str(rep)}
    if query == "eps":
        e = weil.epsilon_exponent(rep)
        return {"kind": "epsilon", "text": _EPS_LABEL[e], "value": e}
    if query == "gamma":
        g = weil.gamma_factor(rep)
        parts = [f"GammaR({_shifted_s(t)})" for t in g.real_shifts]
        parts += [f"GammaC({_shifted_s(t)})" for t in g.complex_shifts]
        return {
            "kind": "gamma",
            "text": " ".join(parts) if parts else "1",
            "value": {
                "real_shifts": [str(t) for t in g.real_shifts],
                "complex_shifts": [str(t) for t in g.complex_shifts],
            },
        }
    try:
        val = weil.log_analytic_conductor(rep)
    except ValueError as exc:  # a negative gamma shift, e.g. logcond([1,-3])
        raise WeilParseError(f"logcond: {exc}") from None
    return {"kind": "log_conductor", "text": fmt(val), "value": val}


# ---------------------------------------------------------------------------
# Other subcommands


def rmt_table(sigmas: list[float], ranks: list[float]) -> list[dict]:
    rows = []
    for group in rmt.SymmetryGroup:
        for sigma in sigmas:
            phi = rmt.fejer_test_function(sigma)
            for r in ranks:
                rows.append(
                    {
                        "group": group.value,
                        "sigma": fmt(sigma),
                        "r": fmt(r),
                        "prediction": fmt(rmt.one_level_prediction(group, phi, r)),
                    }
                )
    return rows


def ec_scan(spec: EllipticFamilySpec, prime_cutoff: int) -> list[dict]:
    """Per-prime second-moment ratio and running rank estimate, both from
    the sums of one residue table per prime (``residue_moments``).

    Raises:
        ValueError: If j is constant or undefined (Delta = 0), or
            prime_cutoff < 2.
    """
    if spec.j_is_constant():
        raise ValueError("second-moment asymptotics require non-constant j")
    table = sieve_primes(prime_cutoff)
    keep = table.primes >= 5
    primes = table.primes[keep]
    first, second = residue_moments(spec, primes)
    running = np.cumsum(table.log_p[keep] / primes * first)
    return [
        {
            "p": str(p),
            "michel_ratio": fmt(moment / p**2),
            "nagao_partial": fmt(-total / p),
        }
        for p, moment, total in zip(primes.tolist(), second.tolist(), running)
    ]


# ---------------------------------------------------------------------------
# Entry point


def _write_output(text: str, out_dir: Optional[str], name: str) -> None:
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text)
    sys.stdout.write(text)


def _nan_columns(rows: list[dict]) -> str:
    """The rows with NaN cells as "family 'a' (c_est, r_est); ...", or ""."""
    return "; ".join(
        f"family {row['family_id']!r} ({', '.join(cols)})"
        for row in rows
        if (cols := [c for c, v in row.items() if v in ("nan", "-nan")])
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lfsym", description="Symmetry types of L-function families."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("constants", "density", "convolve"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name == "convolve":
            p.add_argument("--left", required=True)
            p.add_argument("--right", required=True)
        p.add_argument("--primes", type=int)
        p.add_argument("--sigma", type=float)
        p.add_argument("--threads", type=int)
        p.add_argument("--out")
        p.add_argument("--check", action="store_true")
        if name != "convolve":
            p.add_argument("--json", action="store_true")

    p = sub.add_parser("weil")
    p.add_argument("expression")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rmt-table")
    p.add_argument("--sigma", default="0.5,0.8")
    p.add_argument("--ranks", default="0")
    p.add_argument("--out")

    p = sub.add_parser("ec-scan")
    p.add_argument("--a-poly", required=True)
    p.add_argument("--b-poly", required=True)
    p.add_argument("--primes", type=int, default=200)
    p.add_argument("--out")

    args = parser.parse_args(argv)

    try:
        return _dispatch(args)
    except (ConfigError, WeilParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _apply_overrides(config: ExperimentConfig, args) -> None:
    for name in ("primes", "sigma", "threads"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(config.run, name, value)
    config.run.validate()


def _dispatch(args) -> int:
    if args.command == "weil":
        result = evaluate_weil_expression(args.expression)
        if args.json:
            print(json.dumps(result, sort_keys=True))
        else:
            print(result["text"])
        return EXIT_OK

    if args.command == "rmt-table":
        with _reported_as_config_error("rmt-table"):
            sigmas = [float(s) for s in args.sigma.split(",")]
            ranks = [float(r) for r in args.ranks.split(",")]
            rows = rmt_table(sigmas, ranks)
        _write_output(
            rows_to_csv(rows, ["group", "sigma", "r", "prediction"]),
            args.out,
            "rmt_table.csv",
        )
        return EXIT_OK

    if args.command == "ec-scan":
        with _reported_as_config_error("ec-scan"):
            spec = EllipticFamilySpec(_ints(args.a_poly), _ints(args.b_poly), 0, 1)
            rows = ec_scan(spec, args.primes)
        _write_output(
            rows_to_csv(rows, ["p", "michel_ratio", "nagao_partial"]),
            args.out,
            "ec_scan.csv",
        )
        return EXIT_OK

    config = load_config(args.config)
    _apply_overrides(config, args)

    if args.command == "convolve":
        ids = {d.ident for d in config.declarations}
        for ref in (args.left, args.right):
            if ref not in ids:
                raise ConfigError(f"unknown family id {ref!r}")
        ident = f"{args.left}x{args.right}"
        if ident in ids:
            raise ConfigError(f"family id {ident!r} is already declared")
        config.declarations.append(
            FamilyDecl(
                ident=ident,
                kind="convolve",
                options={"left": args.left, "right": args.right},
            )
        )

    # the commands differ only in the columns they print and in --check
    density = args.command == "density"
    columns = DENSITY_COLUMNS if density else CONSTANT_COLUMNS
    stem = "density" if density else "constants"
    rows = [{c: row[c] for c in columns} for row in run_families(config)]
    if getattr(args, "json", False):
        text = json.dumps(rows, indent=1, sort_keys=True) + "\n"
        _write_output(text, args.out, f"{stem}.json")
    else:
        _write_output(rows_to_csv(rows, columns), args.out, f"{stem}.csv")
    nan = _nan_columns(rows)
    if nan:
        print(f"error: NaN result in {nan}", file=sys.stderr)
        return EXIT_NUMERIC
    if not args.check:
        return EXIT_OK
    if density:
        tol = config.run.check_tolerance
        failed = [
            r["family_id"]
            for r in rows
            if abs(float(r["D1_emp"]) - float(r["D1_pred"])) > tol
        ]
        fault = f"D1_emp off D1_pred by more than {fmt(tol)}"
    else:
        failed = [r["family_id"] for r in rows if r["c_class"] == "indeterminate"]
        fault = "c_class indeterminate"
    if not failed:
        return EXIT_OK
    names = ", ".join(repr(ident) for ident in failed)
    print(f"error: --check failed for family {names}: {fault}", file=sys.stderr)
    return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
