"""The compiled lane kernels: :class:`CompiledLanes`, ``lanes.c`` at one
batch width.

Where ``lanes.c`` is loaded (:mod:`repro.vector.native`) it has a kind for
every instance of three families — magic square, all-interval, Costas —
and for every declarative model that is nothing but ``+-1`` linear rows
with integer right-hand sides (an exact
:class:`~repro.problems.base.ModelProblem`; its ``LINEAR`` kind reads
:attr:`~repro.csp.model.Model.unit_linear_table`).  Every kind keeps its
state incrementally, in 64-bit integers, so there is no order limit.
:func:`lane_kernel` says whether a problem's lanes run here
(``"compiled"``) or each on a session of its own (``"scalar"``: no
library, a failed handshake, or a problem without a kind); nothing chooses.
"""

from __future__ import annotations

import ctypes
import math
from typing import Any, Callable, Optional, Sequence, Type

import numpy as np

from repro.problems.all_interval import AllIntervalProblem
from repro.problems.base import ModelProblem, Problem
from repro.problems.costas import CostasProblem
from repro.problems.magic_square import MagicSquareProblem
from repro.vector import native

__all__ = ["CompiledLanes", "as_vector_problem", "lane_kernel"]


#: the ``LINEAR`` kind of ``lanes.c``
_LINEAR = 3

#: problem type -> (kind, order, state_size) of ``lanes.c`` for an instance
_COMPILED: dict[Type[Problem], Callable[[Problem], tuple[int, int, int]]] = {
    MagicSquareProblem: lambda p: (0, p.order, 2 * p.order + 2),
    AllIntervalProblem: lambda p: (1, 0, p.size),
    CostasProblem: lambda p: (2, 0, p.size * (2 * p.size - 1)),
    # per row: its lhs, its error, the selected variable's coefficient
    ModelProblem: lambda p: (_LINEAR, 0, 3 * int(p.model.unit_linear_table[0])),
}


def _has_compiled_kind(problem: Problem) -> bool:
    """Whether ``lanes.c`` has a kind for ``problem``: every instance of the
    three families, and a declarative model (an exact ``ModelProblem``)
    that is nothing but ``+-1`` rows — one attribute read once its model
    has been asked (:attr:`~repro.csp.model.Model.unit_linear_table`)."""
    if type(problem) is ModelProblem:
        return problem.model.unit_linear_table is not None
    return type(problem) in _COMPILED


#: the per-lane vectors of a ``LaneBlock``, rows of one ``(9, k)`` array
_VECTORS = (
    "dirty", "count", "local_min", "draw", "accept", "i_sel", "delta",
    "resets", "bitgen",
)
(
    _DIRTY, _COUNT, _LOCAL_MIN, _DRAW, _ACCEPT, _I_SEL, _DELTA, _RESETS,
    _BITGEN,
) = range(len(_VECTORS))

#: what a buffer lays out behind its block, in this order: per ``LaneBlock``
#: pointer, the words one lane takes of the array it points at ("n": one
#: per variable, "state": the kind's state size).  The engine's arrays come
#: first, then the hand-off vectors, the ``(k, n)`` scratch and the state;
#: ``CompiledLanes`` carves its views in the same order
_ARRAYS = (
    ("configs", "n"), ("marks", "n"), ("best_configs", "n"),
    ("stats", 7), ("cost", 1), ("best_cost", 1),
    *((name, 1) for name in _VECTORS),
    ("err", "n"), ("deltas", "n"), ("cand", "n"),
    ("state", "state"),
)

#: the words of a ``LaneBlock`` (every field is eight bytes wide), which
#: open a buffer
_HEAD = ctypes.sizeof(native.LaneBlock) // 8


def _word(field: str) -> int:
    """Where ``field`` sits in a ``LaneBlock``, in words."""
    return getattr(native.LaneBlock, field).offset // 8


def _require(array: np.ndarray, dtype: type, shape: tuple) -> None:
    """What ``lanes.c`` assumes of an array it is handed a pointer into."""
    if (
        array.dtype != dtype
        or array.shape != shape
        or not array.flags.c_contiguous
    ):
        raise ValueError(
            f"compiled lanes need a C-contiguous {np.dtype(dtype)} array "
            f"of shape {shape}, got {array.dtype} {array.shape}"
        )


class _Layout:
    """What ``lanes.c`` needs of one problem, derived once per instance and
    held by it (``problem.derived[CompiledLanes]``): the ``LINEAR`` kind's
    table, the words one lane takes of a buffer, and the block's words.
    The block of ``k`` lanes in a buffer at ``base`` is ``head(config, k)
    + base * pointers``: ``pointers`` is 1 at every pointer into the
    buffer (all but ``table``), where ``head`` holds the offset."""

    __slots__ = (
        "n", "table", "lane_words", "per_lane", "pointers", "fixed", "_held",
    )

    def __init__(self, problem: Problem) -> None:
        kind, order, state_size = _COMPILED[type(problem)](problem)
        n = self.n = problem.size
        #: held: the block keeps only its address
        self.table = (
            problem.model.unit_linear_table if kind == _LINEAR else None
        )
        per_lane, fixed, pointers = np.zeros((3, _HEAD), dtype=np.int64)
        sizes = {"n": n, "state": state_size}
        words = 0
        for name, size in _ARRAYS:
            at = _word(name)
            pointers[at] = 1
            fixed[at] = 8 * _HEAD
            per_lane[at] = 8 * words
            words += sizes.get(size, size)
        self.lane_words = words
        per_lane[_word("m")] = 1
        for name, value in (
            ("kind", kind), ("n", n), ("order", order),
            ("state_size", state_size),
        ):
            fixed[_word(name)] = value
        if self.table is not None:
            fixed[_word("table")] = native.address(self.table)
        self.per_lane, self.fixed, self.pointers = per_lane, fixed, pointers
        self._held: Optional[tuple[Any, int, np.ndarray]] = None

    def head(self, config: Any, k: int) -> np.ndarray:
        """The block's words for ``k`` lanes and the solver parameters of
        ``config`` (``None``: zero, for the kernels one at a time), in a
        buffer at address 0 — built once per configuration object and
        width and held, one entry."""
        held = self._held
        if held is not None and held[0] is config and held[1] == k:
            return held[2]
        words = self.per_lane * k + self.fixed
        if config is not None:
            for name, value in (
                ("plateau_is_local_min", bool(config.plateau_is_local_min)),
                ("freeze_swap", config.freeze_swap),
                ("freeze_loc_min", config.freeze_loc_min),
                ("reset_limit", config.reset_limit),
                # csp.permutation.random_partial_reset's count, to the float
                (
                    "reset_swaps",
                    max(1, math.ceil(config.reset_fraction * self.n / 2.0)),
                ),
            ):
                words[_word(name)] = int(value)
            reals = words.view(np.float64)
            reals[_word("prob_select_loc_min")] = config.prob_select_loc_min
            reals[_word("target_cost")] = config.target_cost
        words.flags.writeable = False
        self._held = (config, k, words)
        return words


class CompiledLanes:
    """The kernel set of ``lanes.c`` at one batch width.

    Everything the C side reads and writes for a batch lives in one int64
    buffer: the :class:`~repro.vector.native.LaneBlock` itself (a ctypes
    view of the buffer's first words), then the engine's arrays (the
    configurations, marks, best configurations, counters, costs and best
    costs that :meth:`lane_arrays` hands out), the hand-off vectors, the
    ``(k, n)`` scratch and every lane's derived state.  The block is complete
    when it is built — shape, solver parameters (``config``), pointers —
    from the problem's :class:`_Layout`, derived once per instance; only
    each lane's generator is left to :meth:`bind`.  The engine advances the
    batch with one call on that block (``lanes_run``: rounds of whole
    iterations) and the state follows every swap and reset inside it; a
    row rewritten from Python is reported through :meth:`notify_rows` and
    rebuilt before it is next read.

    The class also runs one kernel per call — :meth:`errors`,
    :meth:`deltas`, :meth:`lane_costs` — on any configuration matrix
    :meth:`begin_round` points it at, which is how
    ``tests/vector/test_kernels.py`` holds the C kernels to the scalar
    protocol.  All arithmetic is 64-bit.
    """

    def __init__(self, problem: Problem, k: int, config: Any = None) -> None:
        if k < 1:
            raise ValueError(f"lane count must be >= 1, got {k}")
        self.problem = problem
        self.k = int(k)
        self.n = problem.size
        lib = native.LOADED.lib
        if lib is None:
            raise ValueError(
                f"no compiled lane kernels: {native.LOADED.error}"
            )
        layout = problem.derived.get(CompiledLanes)
        if layout is None:
            if not _has_compiled_kind(problem):
                raise ValueError(f"lanes.c has no kernels for {problem.name}")
            layout = problem.derived[CompiledLanes] = _Layout(problem)
        self.lib = lib
        self._layout = layout
        self._buffer = buffer = np.zeros(
            _HEAD + k * layout.lane_words, dtype=np.int64
        )
        self.block = native.LaneBlock.from_buffer(buffer)
        head = buffer[:_HEAD]
        np.multiply(layout.pointers, ctypes.addressof(self.block), out=head)
        head += layout.head(config, k)
        # what set-up and the walk touch, in _ARRAYS order; the scratch
        # and the state are views made when asked for
        at = _HEAD + 3 * k * self.n
        self._configs, marks, best_configs = buffer[_HEAD:at].reshape(3, k, -1)
        stats = buffer[at : at + 7 * k].reshape(7, k)
        at += 7 * k
        costs = buffer[at : at + 2 * k].view(np.float64).reshape(2, k)
        at += 2 * k
        self._arrays = (self._configs, marks, best_configs, stats, *costs)
        self._vectors = buffer[at : at + len(_VECTORS) * k].reshape(-1, k)
        self._vectors[_DIRTY] = 1
        #: where the scratch starts
        self._scratch_at = at + len(_VECTORS) * k
        self._rngs: Sequence[np.random.Generator] = ()

    @property
    def _dirty(self) -> np.ndarray:
        """Per lane: must its state be rebuilt before it is next read?"""
        return self._vectors[_DIRTY]

    @property
    def resets(self) -> np.ndarray:
        """Per lane: did it take a partial reset in the last round?"""
        return self._vectors[_RESETS]

    @property
    def _scratch(self) -> np.ndarray:
        """The ``(k, n)`` errors, deltas and tied candidates, stacked."""
        at, size = self._scratch_at, 3 * self.k * self.n
        return self._buffer[at : at + size].reshape(3, self.k, self.n)

    @property
    def _state(self) -> np.ndarray:
        """Every lane's derived state, ``(k, state_size)``."""
        at = self._scratch_at + 3 * self.k * self.n
        return self._buffer[at:].reshape(self.k, -1)

    def lane_arrays(self) -> tuple[np.ndarray, ...]:
        """The engine's arrays, where the block points: the configurations,
        the marks and the best configurations ``(k, n)``, the ``(7, k)``
        counters, the costs and the best costs ``(k,)``."""
        return self._arrays

    def bind(self, rngs: Sequence[np.random.Generator]) -> None:
        """Give the block each lane's generator (which the caller leaves
        alone while ``lanes_run`` runs)."""
        if len(rngs) != self.k:
            raise ValueError(f"got {len(rngs)} generators for {self.k} lanes")
        bitgen = self._vectors[_BITGEN]
        for lane, rng in enumerate(rngs):
            bitgen[lane] = native.bitgen_address(rng)
        self._rngs = rngs

    def moves(self) -> tuple[list[int], list[int], list[int]]:
        """What the last round of ``lanes_run`` did, per lane, as an
        observer of the iteration is told it: the variable selected (-1:
        every variable frozen, nothing selected), the partner it was
        swapped with (-1: no swap executed) and the selection's delta."""
        vectors = self._vectors.tolist()
        local_min, draw, accepted = vectors[_LOCAL_MIN : _ACCEPT + 1]
        partner = self._scratch[2].item
        executed = [
            partner(lane, draw[lane])
            if accepted[lane] or not local_min[lane]
            else -1
            for lane in range(self.k)
        ]
        return vectors[_I_SEL], executed, vectors[_DELTA]

    # -- one kernel per call -----------------------------------------
    def begin_round(self, configs: np.ndarray) -> None:
        """Point the block at ``configs``, a C-contiguous ``(k, n)`` int64
        matrix; a row rewritten later is reported through
        :meth:`notify_rows`."""
        if configs is not self._configs:
            _require(configs, np.int64, (self.k, self.n))
            self._configs = configs
            self.block.configs = native.address(configs)

    def errors(self) -> np.ndarray:
        """Per-variable errors, ``(k, n)``."""
        self.lib.lanes_errors(self.block)
        return self._scratch[0]

    def deltas(self, i_sel: np.ndarray) -> np.ndarray:
        """Swap deltas of lane ``l``'s variable ``i_sel[l]`` against every
        variable, ``(k, n)``, with entry ``[l, i_sel[l]] == 0``."""
        if i_sel.min() < 0 or i_sel.max() >= self.n:
            raise ValueError("selected variable out of range")
        self._vectors[_I_SEL] = i_sel
        self.lib.lanes_deltas(self.block)
        return self._scratch[1]

    def notify_rows(self, lanes: "list[int]", configs: np.ndarray) -> None:
        """Rows of ``configs`` rewritten from Python (a restart, or a swap
        made one kernel at a time)."""
        self._dirty[lanes] = 1

    def lane_costs(self, configs: np.ndarray) -> np.ndarray:
        """The costs of ``configs``, which the block now points at
        (:meth:`begin_round`) and whose state it now holds, in the batch's
        own cost array (:meth:`lane_arrays`)."""
        self.begin_round(configs)
        self.lib.lanes_costs(self.block)
        return self._arrays[4]


def lane_kernel(problem: Problem) -> str:
    """What a lane batch of ``problem`` runs on in this process:
    ``"compiled"`` (``lanes.c`` is loaded and has the problem's kernels, at
    any order: the three families, and declarative models of ``+-1``
    linear rows), else ``"scalar"`` (every lane steps a session of its
    own: lanes buy nothing)."""
    if native.LOADED.lib is not None and _has_compiled_kind(problem):
        return "compiled"
    return "scalar"


def as_vector_problem(problem: Problem, k: int) -> CompiledLanes:
    """The compiled kernel set of ``problem`` at width ``k`` (``ValueError``
    where :func:`lane_kernel` does not answer ``"compiled"``)."""
    return CompiledLanes(problem, k)
