"""Simulated I/O cost accounting.

Rank join operators are judged by how much input they read.  The paper's
primary metric, ``sumDepths``, counts tuple pulls; its wall-clock numbers
come from a C++ implementation reading clustered indexes from disk.  A pure
Python reproduction cannot reproduce meaningful disk timings, so — per the
substitution rule in DESIGN.md — we charge a configurable *simulated* cost
per access instead.  This keeps the I/O-versus-CPU trade-off analyzable
(e.g. "how expensive must access be before instance-optimality pays off?")
without depending on the host machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostModel:
    """Per-access cost parameters for a tuple source.

    ``per_tuple`` is the cost charged for every sequential access.  ``seek``
    is charged once when the source is first touched (index lookup /
    connection setup).  Units are arbitrary but consistent across sources, so
    summed costs are comparable between plans.
    """

    per_tuple: float = 1.0
    seek: float = 0.0

    @classmethod
    def clustered_index(cls) -> "CostModel":
        """The paper's best-case setting: cheap sequential access."""
        return cls(per_tuple=1.0, seek=10.0)

    @classmethod
    def unclustered_index(cls) -> "CostModel":
        """Each access pays a random-I/O-like penalty."""
        return cls(per_tuple=25.0, seek=10.0)

    @classmethod
    def network_stream(cls) -> "CostModel":
        """Remote source: large per-tuple cost (the Fagin middleware setting)."""
        return cls(per_tuple=100.0, seek=500.0)

    @classmethod
    def free(cls) -> "CostModel":
        return cls(per_tuple=0.0, seek=0.0)


@dataclass
class AccessStats:
    """Mutable counters accumulated by a tuple source.  ``cost`` is derived
    — the seek plus ``per_tuple × pulls`` under each model in turn — so ``n``
    single charges and one charge of ``n`` agree bit for bit."""

    pulls: int = 0
    touched: bool = field(default=False)
    #: The cost settled at pull ``_since`` (seek included), the rate since.
    _settled: float = field(default=0.0, repr=False)
    _since: int = field(default=0, repr=False)
    _rate: float = field(default=0.0, repr=False)

    @property
    def cost(self) -> float:
        return self._settled + self._rate * (self.pulls - self._since)

    def charge(self, model: CostModel, n: int = 1) -> None:
        """Record ``n`` sequential accesses under ``model``."""
        if model.per_tuple != self._rate:
            self._settled, self._since, self._rate = self.cost, self.pulls, model.per_tuple
        if not self.touched:
            self._settled += model.seek
            self.touched = True
        self.pulls += n

    def reset(self) -> None:
        self.pulls = 0
        self.touched = False
        self._settled, self._since, self._rate = 0.0, 0, 0.0
