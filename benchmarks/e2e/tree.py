"""Where the benchmark lives, and the guard that it measures this checkout.

The benchmark must time the ``repro`` package of the checkout it sits in.
A stale ``repro`` installed in site-packages would otherwise be imported
silently when ``src/`` is missing, and the numbers would belong to
another program — so a missing or foreign package is a hard failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

__all__ = ["REPO", "OUT", "use_checkout_source"]

REPO = Path(__file__).resolve().parents[2]

#: every file a run writes lands here (ignored by git)
OUT = REPO / "benchmarks" / "out" / "e2e"


def use_checkout_source() -> None:
    """Put ``<checkout>/src`` first on ``sys.path`` and import ``repro``
    from it, or exit non-zero."""
    src = REPO / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2e: no repro package under {src}; nothing to measure")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(
            f"e2e: imported repro from {repro.__file__}, not from {src}"
        )
