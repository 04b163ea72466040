"""Build once, load once: the compiled lane kernels of ``lanes.c``.

``lanes.c`` ships beside this file as package data.  It is compiled by the
platform's C compiler (``$CC``, else ``cc``) into the per-user cache,

    ``${XDG_CACHE_HOME:-~/.cache}/repro/lanes-<sha256 of source + flags>.so``

once per machine and source version, and loaded with :mod:`ctypes` when
:mod:`repro.vector` is imported — so before any pool forks (the workers
inherit the mapping), never inside a job, and never by ``import repro`` or
``repro.cli``, which do not import ``repro.vector``.

The flags (:data:`FLAGS`) are ``-O3 -std=c99 -shared -fPIC``, and they are
part of the file name's hash.  Under GCC 11.3 or later on x86-64 glibc,
``lanes.c`` compiles ``lanes_run`` twice (x86-64-v4 and baseline) and the
dynamic loader binds the one this CPU runs when the library is opened;
nothing here chooses, and no flag names a CPU (``-march=native`` would
make a file that a shared cache could hand to an older CPU, which dies of
SIGILL).  A cold build takes ≈ 1.6 s, once per machine and source
version; a warm start is one ``dlopen``.

Nothing selects the outcome: a library that loads is used, and anything
else — no compiler, an unusable cache directory, a failed build, a failed
handshake — leaves :data:`LOADED` without one and every lane on a session
of its own.  A failed build warns once, with the compiler's stderr; the other
causes are quiet and :func:`kernel_backend` names them.

The handshake: ``lanes.c`` mirrors one struct of ours (``lane_block``) and
one algorithm of NumPy's — the bounded-integer map behind
``Generator.integers``, which it runs on a lane's own bit generator.  Both
are checked at load: the struct by size, the map draw for draw against this
process's NumPy (:func:`_draws_differ`).  A NumPy that changes the map
costs the speed, never a walk.

The cache rule: the directory is created ``0700`` and is used only when it
belongs to the caller and nobody else can write to it; a build is written
under a temporary name and moved into place with :func:`os.replace`, so two
cold starters never see half a file; the only file ever loaded is the one
whose name carries the hash of the source being imported.

This module imports the standard library and NumPy only.
"""

from __future__ import annotations

import ctypes
import os
import stat
import warnings
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "KernelBackend", "LaneBlock", "LOADED", "address", "bitgen_address",
    "draws", "kernel_backend", "load_library",
]

SOURCE = Path(__file__).with_name("lanes.c")
FLAGS = ("-O3", "-std=c99", "-shared", "-fPIC")

class LaneBlock(ctypes.Structure):
    """``lane_block`` of ``lanes.c``, field for field, every one eight
    bytes wide.  The pointers are untyped here so that a field takes an
    :func:`address` as it is.  :class:`repro.vector.problems.CompiledLanes`
    lays a block out at the head of one int64 buffer and points it into the
    rest (``int64_t``, or ``double`` for the two costs); a configuration
    matrix from elsewhere is checked where it is bound."""

    _fields_ = [
        *((name, ctypes.c_int64) for name in (
            "kind", "m", "n", "order", "state_size",
            "plateau_is_local_min", "freeze_swap", "freeze_loc_min",
            "reset_limit", "reset_swaps",
        )),
        ("prob_select_loc_min", ctypes.c_double),
        ("target_cost", ctypes.c_double),
        *((name, ctypes.c_void_p) for name in (
            "configs", "marks", "best_configs", "stats",
            "cost", "best_cost",
            "state", "dirty", "table", "err", "deltas", "cand",
            "count", "local_min", "draw", "accept",
            "i_sel", "delta", "resets", "bitgen",
        )),
    ]


def address(array) -> int:
    """Where a NumPy array's first element lives, as a :class:`LaneBlock`
    pointer field takes it.  An address keeps nothing alive: whoever stores
    one keeps the array.  (Exporting the buffer costs a third of
    ``array.ctypes``, and refuses a read-only array, which C would write.)"""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


# looked up by item: an attribute of ``pythonapi`` is one function object
# shared with every other user of it in the process
_capsule_pointer = ctypes.pythonapi["PyCapsule_GetPointer"]
_capsule_pointer.argtypes = (ctypes.py_object, ctypes.c_char_p)
_capsule_pointer.restype = ctypes.c_void_p


def bitgen_address(generator: np.random.Generator) -> int:
    """Where the ``bitgen_t`` of a generator's bit generator lives (NumPy's
    documented interface for drawing from C).  An address keeps nothing
    alive: whoever stores one keeps the generator.  (The capsule costs a
    sixteenth of ``bit_generator.ctypes``.)"""
    return _capsule_pointer(generator.bit_generator.capsule, b"BitGenerator")


def draws(
    lib: ctypes.CDLL, generator: np.random.Generator, counts: Sequence[int]
) -> list[float]:
    """What ``lanes.c`` draws from ``generator``, per entry of ``counts``:
    ``integers(0, count)`` for a count in ``1 .. 2**32 - 1``, ``random()``
    for a 0."""
    if not all(0 <= count < 2**32 for count in counts):
        raise ValueError("counts must be in 0 .. 2**32 - 1")
    n = len(counts)
    out = (ctypes.c_double * n)()
    lib.lanes_draws(
        bitgen_address(generator), (ctypes.c_int64 * n)(*counts), out, n
    )
    return list(out)


#: the handshake's draws: every branch of the map (a range of one, small
#: ranges, a lane-sized one, just past 16 and 31 bits where rejection is
#: heaviest, the widest), ``random()`` in between, then a reset's pair
_DRAW_TABLE = (1, 2, 3, 7, 0, 144, 2**16 + 1, 0, 2**31 + 1, 2**32 - 1, 0)


def _draws_differ(lib: ctypes.CDLL) -> bool:
    """Whether C's draws from a generator are not this NumPy's own."""
    ours = np.random.Generator(np.random.PCG64(23))
    theirs = np.random.Generator(np.random.PCG64(23))
    expected = [
        float(theirs.integers(0, count)) if count else theirs.random()
        for count in _DRAW_TABLE
    ]
    expected += theirs.integers(0, 144, size=2).tolist()
    return (
        draws(lib, ours, _DRAW_TABLE + (144, 144)) != expected
        or ours.bit_generator.state != theirs.bit_generator.state
    )


class Loaded(NamedTuple):
    """What :func:`load_library` found."""

    lib: Optional[ctypes.CDLL]
    path: Optional[Path]
    error: str  # why there is no library ("" when there is one)


class KernelBackend(NamedTuple):
    """What this process's lanes run on, and why not the compiled round."""

    name: str  # "compiled" | "scalar"
    error: str


def _cache_dir() -> Path:
    """The caller's own cache directory; ``OSError`` when it is not usable."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = Path(base) / "repro"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    status = path.stat()
    if status.st_uid != os.getuid():
        raise OSError(f"cache directory {path} belongs to another user")
    if stat.S_IMODE(status.st_mode) & 0o022:
        raise OSError(f"cache directory {path} is writable by others")
    return path


def _build(source: Path, target: Path) -> str:
    """Compile ``source`` into ``target``; the error text ("" on success)."""
    # what only a build needs is imported by a build: a warm cache starts
    # no subprocess machinery
    import shlex
    import subprocess
    import tempfile

    compiler = shlex.split(os.environ.get("CC") or "cc")
    handle, scratch = tempfile.mkstemp(
        dir=target.parent, prefix=".lanes-", suffix=".tmp"
    )
    os.close(handle)
    try:
        proc = subprocess.run(
            [*compiler, *FLAGS, "-o", scratch, str(source)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            error = (
                f"{' '.join(compiler)} exited with status {proc.returncode}"
                f" building {source.name}:\n{proc.stderr}".rstrip()
            )
            warnings.warn(
                f"compiled lane kernels unavailable, lanes step the "
                f"session: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
            return error
        os.replace(scratch, target)
        return ""
    except FileNotFoundError:
        return f"no C compiler: {compiler[0]!r} not found"
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _bind(lib: ctypes.CDLL) -> None:
    """Declare every entry point; ``OSError`` on a struct that disagrees."""
    block = ctypes.POINTER(LaneBlock)
    for name, argtypes, restype in (
        ("lanes_block_size", (), ctypes.c_int64),
        ("lanes_costs", (block,), None),
        ("lanes_errors", (block,), None),
        ("lanes_deltas", (block,), None),
        ("lanes_draws", (ctypes.c_void_p,) * 3 + (ctypes.c_int64,), None),
        ("lanes_run", (block, ctypes.c_int64, ctypes.c_int64), ctypes.c_int64),
    ):
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = restype
    if lib.lanes_block_size() != ctypes.sizeof(LaneBlock):
        raise OSError("lane_block layout differs between lanes.c and LaneBlock")
    if ctypes.sizeof(LaneBlock) != 8 * len(LaneBlock._fields_):
        # CompiledLanes lays a block out as int64 words
        raise OSError("lane_block fields are not all eight bytes wide")


def load_library(source: Path = SOURCE) -> Loaded:
    """The library built from ``source``, building it if the cache lacks it."""
    if not hasattr(os, "getuid"):
        return Loaded(None, None, "no per-user cache on this platform")
    import hashlib

    try:
        text = source.read_bytes()
        digest = hashlib.sha256(text + " ".join(FLAGS).encode()).hexdigest()
        target = _cache_dir() / f"lanes-{digest}.so"
        if not target.exists():
            error = _build(source, target)
            if error:
                return Loaded(None, None, error)
        lib = ctypes.CDLL(str(target))
        _bind(lib)
    except OSError as err:
        return Loaded(None, None, f"{type(err).__name__}: {err}")
    if _draws_differ(lib):
        return Loaded(
            None, None, "draws differ from this NumPy's Generator.integers"
        )
    return Loaded(lib, target, "")


#: the outcome for this process, settled when ``repro.vector`` is imported
LOADED = load_library()


def kernel_backend() -> KernelBackend:
    """``("compiled", "")``, or ``("scalar", why the build is not there)``."""
    if LOADED.lib is not None:
        return KernelBackend("compiled", "")
    return KernelBackend("scalar", LOADED.error)
