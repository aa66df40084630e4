"""Span recorder for the traced benchmark run.

The recorder swaps timing wrappers in for the public names that the
package's consumer modules call (``qesbethe.bethe.newton_solve``,
``qesbethe.cli.schrodinger_residual``, ...) and puts the originals back
afterwards; nothing under ``src/`` is edited.  Spans are kept in memory and
written out once, when the run ends.

A span is (name, start, end, parent, model id, exception class).  A layer's
busy time is the union of its spans; its self time is each span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

# (consumer module, attribute, span name).  A callee keeps the name of the
# layer that defines it, except newton_solve and build_matrix as driven by
# homotopy continuation, which are timed apart from the bethe/hamiltonian
# calls so the two seeding paths can be told apart.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("qesbethe.bethe", "newton_solve", "bethe.newton_solve"),
    ("qesbethe.bethe", "newton_polish", "bethe.newton_polish"),
    ("qesbethe.bethe", "bae_residual", "bethe.bae_residual"),
    ("qesbethe.bethe", "eigenvalue_from_roots", "bethe.eigenvalue_from_roots"),
    ("qesbethe.bethe", "build_matrix", "hamiltonian.build_matrix"),
    ("qesbethe.bethe", "oracle_spectrum", "spectral.oracle_spectrum"),
    ("qesbethe.bethe", "extract_roots", "spectral.extract_roots"),
    ("qesbethe.homotopy", "homotopy_root_sets", "homotopy.homotopy_root_sets"),
    ("qesbethe.homotopy", "newton_solve", "homotopy.newton_solve"),
    ("qesbethe.homotopy", "build_matrix", "homotopy.build_matrix"),
    ("qesbethe.cli", "solve", "bethe.solve"),
    ("qesbethe.cli", "build_matrix", "hamiltonian.build_matrix"),
    ("qesbethe.cli", "zero_mode_residual", "wavefun.zero_mode_residual"),
    ("qesbethe.cli", "schrodinger_residual", "wavefun.schrodinger_residual"),
    ("qesbethe.cli", "verify_limit", "limits.verify_limit"),
    ("qesbethe.cli", "reduced_bae_check", "limits.reduced_bae_check"),
    ("qesbethe.limits", "solve", "bethe.solve"),
    ("qesbethe.limits", "newton_polish", "bethe.newton_polish"),
    ("qesbethe.limits", "bae_residual", "bethe.bae_residual"),
    ("qesbethe.limits", "build_matrix", "hamiltonian.build_matrix"),
    ("qesbethe.limits", "oracle_spectrum", "spectral.oracle_spectrum"),
    ("qesbethe.limits", "extract_roots", "spectral.extract_roots"),
)

_NEWTON = ("bethe.newton_solve", "homotopy.newton_solve")


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    wrapped boundaries."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int, type | None]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.worst: defaultdict[str, float] = defaultdict(float)
        self.model_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; the exception class that
        leaves it, if any, is kept with the span."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.model_id, None))
        self._stack.append(index)
        exc_type = None
        start = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            exc_type = type(exc)
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.model_id, exc_type)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Timing wrapper around ``fn`` that records spans named ``name``."""
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if name in _NEWTON:
                args = (_counting(tracer, name, args[0]),) + args[1:]
            tracer.counts[f"{name}.calls"] += 1
            with tracer.span(name):
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    tracer.counts[f"{name}.failed"] += 1
                    raise
            if hook is not None:
                hook(tracer, args, out)
            return out

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- installing and restoring the wrappers --------------------------------

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the body."""
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    # -- reductions ------------------------------------------------------------

    def busy(self) -> dict[str, float]:
        """Seconds each span name was open, counting nested spans of the
        same name once."""
        out: defaultdict[str, float] = defaultdict(float)
        for name, start, end, parent, _model, _exc in self.spans:
            if not self._has_ancestor_named(parent, name):
                out[name] += end - start
        return dict(out)

    def self_time(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        child_cover: defaultdict[int, float] = defaultdict(float)
        for _n, start, end, parent, _m, _e in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        return sum(
            (end - start) - child_cover[i]
            for i, (n, start, end, _p, _m, _e) in enumerate(self.spans)
            if n == name
        )

    def escaped_exception(self, model_id: int) -> type | None:
        """Class of the exception that left the outermost raising span of a
        model: the typed cause behind a CLI exit 1.  Exceptions that a layer
        caught itself (a failed continuation leg) sit deeper and lose."""
        best: tuple[int, type] | None = None
        for _n, _s, _e, parent, model, exc in self.spans:
            if model != model_id or exc is None:
                continue
            depth = 0
            while parent >= 0:
                depth += 1
                parent = self.spans[parent][3]
            if best is None or depth <= best[0]:
                best = (depth, exc)
        return None if best is None else best[1]

    def _has_ancestor_named(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent,
        model id, exception name."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                exc = span[5]
                fh.write(json.dumps(span[:5] + (exc and exc.__name__,)) + "\n")


def _counting(tracer: Tracer, name: str, f: Callable) -> Callable:
    """Residual map that counts its evaluations and the pair factors
    (n(n-1) for n unknowns) each one computes."""

    def counted(v):
        tracer.counts[f"{name}.residual_evals"] += 1
        if name == "bethe.newton_solve":
            n = len(v)
            tracer.counts["bethe.pair_factors"] += n * (n - 1)
        return f(v)

    return counted


def _on_build(tracer: Tracer, _args, om) -> None:
    tracer.counts["hamiltonian.build_matrix.columns"] += om.dim


def _on_oracle(tracer: Tracer, args, _out) -> None:
    tracer.counts["spectral.eig_dim3"] += args[0].dim ** 3


def _on_polish(tracer: Tracer, _args, out) -> None:
    if out[1].polished:
        tracer.counts["bethe.newton_polish.accepted"] += 1


def _on_solve(tracer: Tracer, _args, solutions) -> None:
    worst = tracer.worst
    for sol in solutions:
        gap = sol.discrepancy / max(1.0, abs(sol.E_oracle))
        worst["bethe.worst_residual"] = max(worst["bethe.worst_residual"], sol.residual_max)
        worst["bethe.worst_gap"] = max(worst["bethe.worst_gap"], gap)


_HOOKS: dict[str, Callable] = {
    "hamiltonian.build_matrix": _on_build,
    "spectral.oracle_spectrum": _on_oracle,
    "bethe.newton_polish": _on_polish,
    "bethe.solve": _on_solve,
}
