"""What ``lanes.c`` welds to NumPy, and what guards the weld.

A compiled lane draws in C, from the lane's own NumPy bit generator, and
must draw what ``Generator.integers(0, c)`` / ``integers(0, n, size=2)`` /
``random()`` would have: one bounded-integer map (Lemire's, over
``next_uint32``) and ``next_double``.  This file holds the map to NumPy's
draw for draw on every bit generator NumPy ships — it runs first in CI, so
a NumPy that changes the map fails here, by name, not as a golden-walk
mismatch — and checks that a library whose draws differ is never used.
"""

import numpy as np
import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.errors import SolverError
from repro.problems import make_problem
from repro.vector import kernel_backend, native
from repro.vector.engine import VectorWalkEngine
from repro.vector.problems import CompiledLanes, lane_kernel
from tests.vector.test_equivalence import assert_walks_equal
from tests.vector.test_kernels import needs_compiled

BIT_GENERATORS = ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"]
#: every branch of the map: a range of one (no draw), small and lane-sized
#: ranges, just past a power of two (where rejection is heaviest), the
#: widest range the 32-bit map takes
RANGES = [
    1, 2, 3, 7, 25, 144, 900, 2**16 - 1, 2**16, 2**16 + 1, 2**31 - 1,
    2**31, 2**31 + 1, 2**32 - 2, 2**32 - 1,
]


@needs_compiled
@pytest.mark.parametrize("name", BIT_GENERATORS)
def test_c_draws_what_numpy_draws(name):
    lib = native.LOADED.lib
    ours, theirs = (
        np.random.Generator(getattr(np.random, name)(1234)) for _ in "ab"
    )
    picker = np.random.default_rng(5)
    for chunk in range(200):
        # scalar bounded draws and random(), mixed as a walk mixes them
        # (0 stands for random()) ...
        counts = picker.choice(RANGES + [0, 0, 0], size=100).tolist()
        expected = [
            float(theirs.integers(0, count)) if count else theirs.random()
            for count in counts
        ]
        assert native.draws(lib, ours, counts) == expected, chunk
        # ... a partial reset's pairs ...
        n = RANGES[chunk % len(RANGES)]
        pairs = [theirs.integers(0, n, size=2).tolist() for _ in range(9)]
        assert native.draws(lib, ours, [n] * 18) == sum(pairs, []), n
        # ... and between them Python drawing from the same generator,
        # which is what a restart does
        assert ours.permutation(12).tolist() == theirs.permutation(12).tolist()
    # same place in the stream, the buffered half-word included
    pair = theirs.integers(0, 7, size=2).tolist()
    assert native.draws(lib, ours, [7, 7]) == pair
    assert ours.bit_generator.random_raw() == theirs.bit_generator.random_raw()


@needs_compiled
def test_draws_refuses_a_range_the_map_does_not_take():
    rng = np.random.default_rng(0)
    for bad in (-1, 2**32):
        with pytest.raises(ValueError, match="counts"):
            native.draws(native.LOADED.lib, rng, [3, bad])


@needs_compiled
def test_a_library_whose_draws_differ_is_not_used(monkeypatch):
    # what a NumPy with another bounded-integer map would look like from
    # here: C answering something else than Generator.integers
    monkeypatch.setattr(
        native, "draws", lambda lib, rng, counts: [0.0] * len(counts)
    )
    failed = native.load_library()
    assert failed.lib is None and failed.path is None
    assert failed.error == "draws differ from this NumPy's Generator.integers"
    # ... and a process that loaded it that way steps a session per lane
    problem = make_problem("costas", n=9)
    config = AdaptiveSearchConfig(max_iterations=300)
    compiled = VectorWalkEngine(problem, 3, config, seeds=[1, 2, 3])
    assert isinstance(compiled.vp, CompiledLanes)
    expected = compiled.run().walks
    monkeypatch.setattr(native, "LOADED", failed)
    assert kernel_backend() == ("scalar", failed.error)
    assert lane_kernel(problem) == "scalar"
    fallback = VectorWalkEngine(problem, 3, config, seeds=[1, 2, 3])
    assert not fallback._compiled
    for a, b in zip(expected, fallback.run().walks):
        assert_walks_equal(a, b, "compiled round vs fallback")


def test_the_handshake_passes_on_this_numpy():
    # on a host with a compiler the only reason for session lanes is one
    # somebody should read
    backend = kernel_backend()
    assert "draws differ" not in backend.error, np.__version__


def test_two_lanes_cannot_share_a_generator():
    problem = make_problem("costas", n=9)
    shared = np.random.default_rng(1)
    with pytest.raises(SolverError, match=r"lanes \[0, 2\] share"):
        VectorWalkEngine(
            problem, 3, seeds=[shared, np.random.default_rng(2), shared]
        )
    # two generators over one bit generator are one stream too
    twin = np.random.Generator(shared.bit_generator)
    with pytest.raises(SolverError, match=r"lanes \[0, 1\] share"):
        VectorWalkEngine(problem, 2, seeds=[shared, twin])
