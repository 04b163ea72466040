"""Derived tables are not content.

Problems and models build some of their kernel tables lazily, as
``functools.cached_property`` values: the first walk pays for them, a
constructor never does, and — because they are a pure function of what
``__init__`` stored — they must not travel in a pickle either (a content
digest that changed once an instance had walked would make every cache
keyed on it re-ship the problem).
"""

from __future__ import annotations

from functools import cached_property
from typing import Any

__all__ = ["content_state"]


def content_state(obj: Any) -> dict[str, Any]:
    """``obj.__dict__`` without its ``cached_property`` values — what a
    ``__getstate__`` returns so that use never changes the pickle."""
    cls = type(obj)
    return {
        name: value
        for name, value in vars(obj).items()
        if not isinstance(getattr(cls, name, None), cached_property)
    }
