"""Per-layer tracing of lfsym, installed from outside its source tree.

``Tracer.install`` wraps the public functions of ``lfsym.arith``, ``ecgeom``,
``families``, ``satake``, ``stats``, ``rmt`` and ``cli``, the family methods
that carry the prime-side work, ``ExperimentConfig.resolve`` and the
``phi_hat`` of every test function ``rmt`` builds.  ``uninstall`` restores
the originals.  A function imported by name into another module
(``from .arith import factorize``) is a separate binding, so each wrapper is
installed in every lfsym namespace that holds the original, not only where
the function is defined.

Spans are aggregated in memory per name: calls, total time, self time (the
span minus the child spans inside it) and the longest call.  The span stack is
one list, so tracing assumes ``threads = 1``: the CLI's one-worker pool then
runs each family while the calling thread waits, and the worker's spans nest
under the caller's.

Not wrapped, on purpose: ``lfsym.weil`` and the quadrature in ``rmt``.  No
command of the benchmark spends measurable time in them
(``log_analytic_conductor`` takes under 1 ms).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time

MODULES = ("arith", "ecgeom", "families", "satake", "stats", "rmt", "cli")
NOT_TRACED = {
    "rmt": {"composite_gauss", "density_quadrature", "fourier_side_integral"},
}
FAMILY_KINDS = (
    "EllipticFamily",
    "QuadraticFamily",
    "DirichletFamily",
    "ConvolutionFamily",
    "TwistedFamily",
    "SymLiftFamily",
)
FAMILY_METHODS = ("prime_moments", "average_log_conductor")
RESIDUE_DATA = "families.EllipticFamily.residue_data"
ROOT = "cli.main"


class _Span:
    """Aggregate of every call to one wrapped function."""

    __slots__ = ("calls", "total", "self_time", "longest")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.longest = 0.0


class Tracer:
    """Span aggregates and layer counters for one benchmark run."""

    def __init__(self) -> None:
        self.spans: dict[str, _Span] = {}
        self._stack: list[list] = []  # [name, time covered by child spans]
        self._patches: list[tuple[object, str, object, bool]] = []
        # counters measured at the layer boundaries
        self.table_cells = 0
        self.table_seconds = {"p_lt_500": 0.0, "p_500_2000": 0.0}
        self.tables_under_residue_data = 0
        self.moments_from_stats = 0
        self.moment_primes = 0
        # family id -> largest prime passed to its prime_moments by stats in
        # the current command.  Kept per command, not as a set of every
        # (family, prime) key: a growing allocation pins the top of the heap
        # and changes how often glibc trims it, which moves the timings of
        # allocation-heavy layers such as arith.legendre_table.
        self._highest_prime: dict[int, int] = {}

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name: str, fn, probe=None):
        """``fn`` wrapped in a span called ``name``.

        ``probe(parent, seconds, args)`` runs after each call; ``parent`` is the
        name of the enclosing span or None.
        """
        span = self.spans.setdefault(name, _Span())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - frame[1]
                if elapsed > span.longest:
                    span.longest = elapsed
                if probe is not None:
                    probe(parent[0] if parent else None, elapsed, args)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced layers of the imported ``lfsym`` package."""
        mods = {name: importlib.import_module(f"lfsym.{name}") for name in MODULES}
        wrappers: dict[int, tuple[object, object]] = {}
        for modname, mod in mods.items():
            skip = NOT_TRACED.get(modname, set())
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or attr in skip
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                fn = obj
                if attr.endswith("_test_function"):
                    fn = self._tracing_phi_hat(obj)
                name = f"{modname}.{attr}"
                probe = self._table_probe if name == "ecgeom.ap_residue_table" else None
                wrappers[id(obj)] = (obj, self.wrap(name, fn, probe))
        # every binding of an original, wherever it was imported by name
        for modname in sorted(sys.modules):
            mod = sys.modules[modname]
            if mod is None or not (modname == "lfsym" or modname.startswith("lfsym.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

        families = mods["families"]
        for kind in FAMILY_KINDS:
            cls = getattr(families, kind)
            for method in FAMILY_METHODS:
                probe = self._moment_probe if method == "prime_moments" else None
                name = f"families.{kind}.{method}"
                self._set(cls, method, self.wrap(name, getattr(cls, method), probe))
        self._set(
            families.EllipticFamily,
            "residue_data",
            self.wrap(RESIDUE_DATA, families.EllipticFamily.residue_data),
        )
        config_cls = mods["cli"].ExperimentConfig
        self._set(config_cls, "resolve", self.wrap("cli.resolve", config_cls.resolve))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _tracing_phi_hat(self, make):
        """A test-function constructor whose results have a traced phi_hat."""

        @functools.wraps(make)
        def make_traced(*args, **kwargs):
            tf = make(*args, **kwargs)
            return dataclasses.replace(tf, phi_hat=self.wrap("rmt.phi_hat", tf.phi_hat))

        return make_traced

    # -- probes -------------------------------------------------------------------

    def _table_probe(self, parent, elapsed, args) -> None:
        p = int(args[1])
        self.table_cells += p * p
        # no workload has a cutoff above 2000, so the upper bucket is p >= 500
        self.table_seconds["p_lt_500" if p < 500 else "p_500_2000"] += elapsed
        if parent == RESIDUE_DATA:
            self.tables_under_residue_data += 1

    def next_command(self) -> None:
        self._highest_prime = {}

    def _moment_probe(self, parent, elapsed, args) -> None:
        # Every stats loop walks an ascending prefix of the same primes, so a
        # prime is new for its family in this command iff it exceeds the
        # largest one seen so far.
        if parent is not None and parent.startswith("stats."):
            self.moments_from_stats += 1
            p = int(args[1])
            if p > self._highest_prime.get(id(args[0]), 0):
                self._highest_prime[id(args[0])] = p
                self.moment_primes += 1

    # -- results ------------------------------------------------------------------

    def self_time(self, name: str) -> float:
        span = self.spans.get(name)
        return span.self_time if span else 0.0

    def top_layers(self, n: int = 5) -> list[tuple[str, float]]:
        """The ``n`` spans with the largest self time, root excluded."""
        ranked = sorted(
            ((name, s.self_time) for name, s in self.spans.items() if name != ROOT),
            key=lambda item: -item[1],
        )
        return ranked[:n]

    def wrapped_calls(self) -> int:
        return sum(s.calls for s in self.spans.values())

    def layer_metrics(self, cycles: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per cycle (one ``constants`` plus one ``density``)."""
        out: dict[str, tuple[float, str]] = {}

        def span(name: str) -> _Span:
            return self.spans.get(name) or _Span()

        def seconds(metric: str, value: float) -> None:
            out[metric] = (value / cycles, "s")

        def count(metric: str, value: float) -> None:
            out[metric] = (value / cycles, "count")

        table = span("ecgeom.ap_residue_table")
        seconds("ecgeom.ap_residue_table.s", table.total)
        count("ecgeom.ap_residue_table.calls", table.calls)
        count("ecgeom.ap_residue_table.cells", self.table_cells)
        seconds("ecgeom.ap_residue_table.s.p_lt_500", self.table_seconds["p_lt_500"])
        seconds(
            "ecgeom.ap_residue_table.s.p_500_2000", self.table_seconds["p_500_2000"]
        )
        for name in ("ecgeom.conductor_proxy", "arith.factorize"):
            seconds(f"{name}.s", span(name).total)
            count(f"{name}.calls", span(name).calls)
            out[f"{name}.max_ms"] = (1000.0 * span(name).longest, "ms")
        for name in (
            "ecgeom.avg_log_conductor",
            "arith.legendre_table",
            "satake.hecke_b_array",
            "satake.sym_power_b_array",
        ):
            seconds(f"{name}.s", span(name).total)
            count(f"{name}.calls", span(name).calls)
        seconds("arith.sieve_primes.s", span("arith.sieve_primes").total)
        seconds("arith.characters_mod.s", span("arith.characters_mod").total)
        for kind in FAMILY_KINDS:
            moments = span(f"families.{kind}.prime_moments")
            seconds(f"families.{kind}.prime_moments.self_s", moments.self_time)
            count(f"families.{kind}.prime_moments.calls", moments.calls)
            seconds(
                f"families.{kind}.average_log_conductor.s",
                span(f"families.{kind}.average_log_conductor").total,
            )
        residue = span(RESIDUE_DATA)
        count(f"{RESIDUE_DATA}.calls", residue.calls)
        out["families.residue_cache_hit_ratio"] = (
            1.0 - self.tables_under_residue_data / residue.calls
            if residue.calls
            else 0.0,
            "ratio",
        )
        for name in ("family_constant", "prime_sum", "prime_square_sum", "one_level_density"):
            seconds(f"stats.{name}.self_s", span(f"stats.{name}").self_time)
        out["stats.prime_moments_calls_per_prime"] = (
            self.moments_from_stats / self.moment_primes if self.moment_primes else 0.0,
            "calls/prime",
        )
        phi_hat = span("rmt.phi_hat")
        count("rmt.phi_hat.calls", phi_hat.calls)
        seconds("rmt.phi_hat.s", phi_hat.total)
        seconds("cli.resolve.s", span("cli.resolve").total)
        seconds("cli.run_constants.self_s", span("cli.run_constants").self_time)
        seconds("cli.run_density.self_s", span("cli.run_density").self_time)
        return out
