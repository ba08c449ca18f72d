"""Physical plans: left-deep pipelines of binary rank join operators."""

from repro.plan.pipeline import OperatorSource, Pipeline

__all__ = ["OperatorSource", "Pipeline"]
