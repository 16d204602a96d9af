"""Shared drift-report container with deterministic JSON serialization.

All drift and residual suites emit this one schema (a ``theorem`` tag tells
the rows apart), so CLI output stays plot-ready and diffable: identical
inputs produce byte-identical files.  Floats are serialized with ``repr``
(shortest round-trip form) and dict keys are sorted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass
class DriftReport:
    """Time series of an invariant and its deviation from the t0 value.

    ``values`` holds the scalar invariant when there is one (circulation,
    helicity, ...); field-valued invariants report norms only.  By
    construction ``max_deviation[0] == l2_deviation[0] == 0``.
    """

    theorem: str
    times: list[float]
    max_deviation: list[float]
    l2_deviation: list[float]
    values: list[float] | None = None
    tolerance: float | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.times)
        if len(self.max_deviation) != n or len(self.l2_deviation) != n:
            raise ValueError("deviation series must match the time stamps")
        if self.values is not None and len(self.values) != n:
            raise ValueError("values series must match the time stamps")
        if n and (self.max_deviation[0] != 0.0 or self.l2_deviation[0] != 0.0):
            raise ValueError("deviation at t0 must be exactly zero")

    @property
    def max_drift(self) -> float:
        return max(self.max_deviation, default=0.0)

    @property
    def passed(self) -> bool | None:
        if self.tolerance is None:
            return None
        return self.max_drift <= self.tolerance

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "theorem": self.theorem,
            "times": list(map(float, self.times)),
            "max_deviation": list(map(float, self.max_deviation)),
            "l2_deviation": list(map(float, self.l2_deviation)),
            "metadata": self.metadata,
        }
        if self.values is not None:
            out["values"] = list(map(float, self.values))
        if self.tolerance is not None:
            out["tolerance"] = float(self.tolerance)
            out["passed"] = self.passed
        return out

    def to_json(self) -> str:
        return dumps_deterministic(self.to_dict())


def dumps_deterministic(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)
