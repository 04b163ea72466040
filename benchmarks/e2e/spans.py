"""In-memory spans of the traced run.

Every probe call and every ladder call of ``run.py --trace 1`` is one
span ``(name, start, end, parent, job)``: ``parent`` is the index of the
span that caused it (``None`` at the top) and spans of one job share its
``job`` identifier.  Spans stay in a list while the run measures and are
written as JSON lines when it ends; the untraced run records none.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import ContextManager, Iterator, Optional

__all__ = ["Spans", "span"]


class Spans:
    def __init__(self) -> None:
        self.rows: list[dict] = []

    @contextmanager
    def span(
        self, name: str, job: str, parent: Optional[int] = None
    ) -> Iterator[int]:
        index = len(self.rows)
        row = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "job": job}
        self.rows.append(row)
        try:
            yield index
        finally:
            row["end"] = time.perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for row in self.rows:
                out.write(json.dumps(row) + "\n")


def span(
    spans: Optional[Spans], name: str, job: str, parent: Optional[int] = None
) -> ContextManager[Optional[int]]:
    """``spans.span(...)``, or a no-op when the run is untraced."""
    if spans is None:
        return nullcontext()
    return spans.span(name, job, parent)
