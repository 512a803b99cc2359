"""In-memory spans around the harness's own calls into the program.

Spans are recorded only in the traced pass; the timed units run with a
disabled recorder whose ``span`` does nothing, so end-to-end numbers never
carry tracing cost.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Spans:
    """Nested spans: name, start, end, parent, and the unit's id."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []
        self.unit_id = ""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "unit": self.unit_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def durations(self, name: str, unit_prefix: str = "") -> list[float]:
        """Host seconds of every finished span called ``name``."""
        return [
            r["end"] - r["start"]
            for r in self.records
            if r["name"] == name and r["unit"].startswith(unit_prefix)
        ]

    def write(self, path: Path) -> None:
        """One JSON object per line, in start order."""
        with path.open("w") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")
