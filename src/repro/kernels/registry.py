"""Per-op kernel implementation registry.

The registry is the factual record of *which* callable implements
*which* kernel op at each of the two tiers, both always present:

* ``reference`` — pure-Python loops (:mod:`repro.kernels.reference`),
  the semantic oracle every test compares against; it implements every
  op — registration fails otherwise;
* ``vectorized`` — numpy broadcasts (:mod:`repro.kernels.vectorized`),
  the bulk tier (numpy is a hard dependency of the package); it
  implements the ops a broadcast can win.

An op the vectorized tier does not implement has one implementation: it
resolves to the reference at any requested tier (and is counted under
``kernel="python"``).
"""

from __future__ import annotations

from collections.abc import Callable

#: Canonical backend name per tier (what counters and ``--kernel`` use).
TIER_BACKEND = {
    "reference": "python",
    "vectorized": "numpy",
}

#: Inverse: backend name -> tier.
BACKEND_TIER = {name: tier for tier, name in TIER_BACKEND.items()}


class ResolvedOp:
    """One op's implementation at one tier: the callable plus the
    backend name the per-call instrumentation labels it with."""

    __slots__ = ("op", "impl", "used")

    def __init__(self, op: str, impl: Callable, used: str) -> None:
        self.op = op
        self.impl = impl
        self.used = used  # backend name, e.g. "numpy"


class KernelRegistry:
    """Maps each kernel op to its implementation at every tier."""

    def __init__(self, ops: tuple[str, ...]) -> None:
        self.ops = ops
        self._impls: dict[str, dict[str, Callable]] = {op: {} for op in ops}

    def register(self, tier: str, backend: object) -> None:
        """Bind ``backend``'s methods under ``tier``.

        The reference tier must implement every op — one it misses raises
        :class:`AttributeError` here, at import time, rather than at some
        later call; the vectorized tier binds the ops it has.
        """
        if tier not in TIER_BACKEND:
            raise ValueError(
                f"unknown kernel tier {tier!r}; choose from {tuple(TIER_BACKEND)}"
            )
        for op in self.ops:
            if tier == "reference" or hasattr(backend, op):
                self._impls[op][tier] = getattr(backend, op)

    def backend_names(self) -> tuple[str, ...]:
        """Canonical names of the registered backends, sorted."""
        tiers = set().union(*self._impls.values())
        return tuple(sorted(TIER_BACKEND[t] for t in tiers))

    def implementations(self, op: str) -> dict[str, Callable]:
        """Tier -> callable for one op (a copy)."""
        return dict(self._impls[op])

    def resolve(self, op: str, tier: str) -> ResolvedOp:
        """The implementation of ``op`` at ``tier`` (the reference's, for
        an op ``tier`` does not implement)."""
        if op not in self._impls:
            raise KeyError(f"unknown kernel op {op!r}")
        if tier not in self._impls[op]:
            tier = "reference"
        return ResolvedOp(op, self._impls[op][tier], TIER_BACKEND[tier])

    def resolve_all(self, tier: str) -> dict[str, ResolvedOp]:
        """Every op resolved at ``tier`` (the pinned-backend table)."""
        return {op: self.resolve(op, tier) for op in self.ops}
