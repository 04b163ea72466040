"""Observer hooks into the search loop.

Callbacks serve three purposes in this reproduction:

- instrumentation (cost traces for the examples and docs),
- cooperative cancellation — the parallel multi-walk runtime installs a
  callback that raises a cancel flag when another walk has finished, which
  is exactly the "communication only for completion" of the paper,
- tests (asserting loop invariants from the outside).

Returning ``False`` from ``on_iteration`` cancels the walk; any other return
value continues it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, runtime_checkable

import numpy as np

__all__ = ["IterationInfo", "SearchCallback", "CallbackList", "CostTraceCallback"]


@dataclass
class IterationInfo:
    """Snapshot handed to ``on_iteration`` (cheap fields only)."""

    iteration: int
    cost: float
    best_cost: float
    selected_variable: int
    selected_swap: int  # partner index, or -1 if no swap executed
    delta: float
    restarts: int
    resets: int


@runtime_checkable
class SearchCallback(Protocol):
    """Protocol for search observers; all methods optional via duck typing."""

    def on_start(self, config: np.ndarray, cost: float) -> None: ...

    def on_iteration(self, info: IterationInfo) -> Optional[bool]: ...

    def on_reset(self, iteration: int, cost: float) -> None: ...

    def on_restart(self, restart_index: int, cost: float) -> None: ...

    def on_finish(self, solved: bool, cost: float) -> None: ...


_HOOKS = ("on_start", "on_iteration", "on_reset", "on_restart", "on_finish")


class CallbackList:
    """Fan-out wrapper; missing methods on members are skipped.

    ``on_iteration`` returns False (cancel) as soon as any member does.
    Each member's hooks are looked up once, when it joins the list — the
    per-iteration fan-out is the cancel poll of every pool and process
    worker, so it calls bound methods and nothing else.
    """

    def __init__(self, callbacks: list[object] | None = None) -> None:
        self.callbacks: list[object] = []
        self._hooks: dict[str, list[Callable]] = {name: [] for name in _HOOKS}
        for callback in callbacks or []:
            self.add(callback)

    def add(self, callback: object) -> None:
        self.callbacks.append(callback)
        for name, methods in self._hooks.items():
            method = getattr(callback, name, None)
            if method is not None:
                methods.append(method)

    @property
    def observes_iterations(self) -> bool:
        """Whether any member has an ``on_iteration`` hook — a loop with
        none need not build an :class:`IterationInfo` at all."""
        return bool(self._hooks["on_iteration"])

    def on_start(self, config: np.ndarray, cost: float) -> None:
        for method in self._hooks["on_start"]:
            method(config, cost)

    def on_iteration(self, info: IterationInfo) -> bool:
        keep_going = True
        for method in self._hooks["on_iteration"]:
            if method(info) is False:
                keep_going = False
        return keep_going

    def on_reset(self, iteration: int, cost: float) -> None:
        for method in self._hooks["on_reset"]:
            method(iteration, cost)

    def on_restart(self, restart_index: int, cost: float) -> None:
        for method in self._hooks["on_restart"]:
            method(restart_index, cost)

    def on_finish(self, solved: bool, cost: float) -> None:
        for method in self._hooks["on_finish"]:
            method(solved, cost)


class CostTraceCallback:
    """Records ``(iteration, cost)`` pairs; handy for convergence plots."""

    def __init__(self, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = every
        self.trace: list[tuple[int, float]] = []

    def on_start(self, config: np.ndarray, cost: float) -> None:
        self.trace.append((0, cost))

    def on_iteration(self, info: IterationInfo) -> None:
        if info.iteration % self.every == 0:
            self.trace.append((info.iteration, info.cost))

    def costs(self) -> list[float]:
        return [c for _, c in self.trace]
