"""A run's outcome and the result line the benchmark prints last."""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Sequence

from perfbench.layers import per_layer_output
from perfbench.spans import SpanRecorder


class Outcome:
    """Attempts, failures, metrics and notes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, dict] = {}
        self.notes: List[str] = []
        #: Per-layer values of a traced run (``None`` for a timed run).
        self.layer_values: Optional[Dict[str, float]] = None
        #: The traced run's spans, written out when the run ends.
        self.spans: Optional[SpanRecorder] = None

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def note(self, line: str) -> None:
        self.notes.append(line)

    @property
    def correct(self) -> bool:
        return not self.failures

    @property
    def attempted_and_failed(self):
        attempted = max(1, self.attempted)
        return attempted, min(len(self.failures), attempted)

    def output_metrics(self, per_layer: Sequence[dict]) -> Dict[str, dict]:
        """The end-to-end metrics, or when traced every *per_layer* one
        (``BENCHMARK.json``'s declarations)."""
        if self.layer_values is None:
            return self.metrics
        attempted, failed = self.attempted_and_failed
        return per_layer_output(
            dict(self.layer_values, error_rate=failed / attempted), per_layer
        )

    def result_line(self, per_layer: Sequence[dict]) -> str:
        attempted, failed = self.attempted_and_failed
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": self.output_metrics(per_layer),
            }
        )
