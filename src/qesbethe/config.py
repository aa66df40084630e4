"""Thresholds of the ``verify`` and ``limits`` checks, overridable from the
CLI; each document's meta block records the ones its command applied.

The pipeline's numerical guards (polish target, leak and division checks,
degeneracy and trimming thresholds) are module constants where they are
used, not tolerances: they are not user-tunable."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    bae_residual: float = 1e-9
    eigenvalue_match: float = 1e-8
    zero_mode: float = 1e-10
    schrodinger: float = 1e-8
    exact_limit: float = 1e-9
    reduced_bae: float = 1e-9

    def override(self, **updates: float) -> "Tolerances":
        known = {f.name for f in fields(self)}
        unknown = set(updates) - known
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        return replace(self, **updates)

    def as_dict(self, names: tuple[str, ...]) -> dict[str, float]:
        """The named thresholds, in the order given."""
        return {name: getattr(self, name) for name in names}
