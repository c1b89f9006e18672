"""Size caps for the expensive operations.

Every enumeration or materialization takes a Caps value and raises
CapExceeded beyond it, rather than sampling silently.  The defaults are
desk-scale; override per call or via the CLI flags.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapExceeded


class Caps(NamedTuple):
    order: int = 10_000              # largest group order handled anywhere
    subgroup_order: int = 512        # order limit for full subgroup enumeration
    subgroup_count: int = 100_000    # hard limit on enumerated subgroups
    normal_subgroup_count: int = 100_000
    spread_order: int = 512          # order limit for conjugate-spread search
    automorphism_order: int = 64     # order limit for automorphism backtracking
    automorphism_count: int = 100_000
    boolean_atoms: int = 20          # atoms of a finite Boolean ring
    refine_steps: int = 10           # atom-splitting steps in a refinement chain
    tower_length: int = 32           # levels in an inverse system
    materialized_order: int = 10_000  # |P|^atoms for materialized powers/algebras

    def with_overrides(self, **kwargs: int) -> "Caps":
        return self._replace(**{k: v for k, v in kwargs.items() if v is not None})

    def check(self, cap: str, actual: int, detail: str = "") -> None:
        """Raise CapExceeded when `actual` exceeds the limit named `cap`."""
        if actual > getattr(self, cap):
            raise CapExceeded(cap, getattr(self, cap), actual, detail)


DEFAULT_CAPS = Caps()
