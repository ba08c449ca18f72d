"""Process-wide configuration knobs (:class:`ReproConfig`).

Two global knobs live here:

* the kernel of :mod:`repro.kernels`, selected process-wide.
  Resolution order, highest priority first: an explicit ``--kernel``
  CLI flag / :func:`repro.kernels.set_backend` call /
  ``ReproConfig(kernel=...)`` (all three end in ``set_backend``); the
  ``REPRO_KERNEL`` environment variable; ``auto`` (each call routed by
  its batch size).  Pinned names (``python``/``numpy``) force that form
  wherever an op has it.
* the planner's cost-model coefficients (:mod:`repro.planner.cost`).
  ``planner_coeffs`` names a JSON file of coefficient overrides;
  without it the planner micro-benchmarks the machine once per process.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.kernels import BACKEND_CHOICES, ENV_VAR, kernel_name, set_backend


@dataclass(frozen=True)
class ReproConfig:
    """Declarative bundle of process-wide settings.

    ``kernel`` is one of :data:`repro.kernels.BACKEND_CHOICES`
    (``auto``/``numpy``/``python``); ``planner_coeffs`` optionally names a
    JSON file of :class:`repro.planner.CostCoefficients` overrides.
    Construct-and-:meth:`apply`, or use :meth:`from_env` to mirror the
    environment.
    """

    kernel: str = "auto"
    planner_coeffs: str | None = None

    def __post_init__(self) -> None:
        if self.kernel not in BACKEND_CHOICES:
            raise ValueError(
                f"unknown kernel backend {self.kernel!r}; "
                f"choose from {BACKEND_CHOICES}"
            )

    @classmethod
    def from_env(cls) -> "ReproConfig":
        """Config as the environment would resolve it (invalid → auto)."""
        raw = os.environ.get(ENV_VAR, "auto").strip().lower()
        if raw not in BACKEND_CHOICES:
            raw = "auto"
        return cls(kernel=raw)

    @classmethod
    def current(cls) -> "ReproConfig":
        """Config reflecting the kernel that is active right now."""
        return cls(kernel=kernel_name())

    def apply(self) -> str:
        """Install these settings; returns the selected kernel name."""
        if self.planner_coeffs is not None:
            # Imported lazily — the planner is an optional consumer.
            from repro.planner.cost import CostCoefficients, set_coefficients

            payload = json.loads(Path(self.planner_coeffs).read_text())
            set_coefficients(CostCoefficients.from_dict(payload))
        return set_backend(self.kernel)
