"""How ``lanes.c`` gets built, cached and loaded — and what happens when
it cannot be.

Every case runs in fresh interpreters with an empty ``XDG_CACHE_HOME`` of
its own (``repro.vector.native`` settles the outcome once, at import, so
this pytest process can only ever show one of them).  The rule under test:
which round runs is observed, never chosen — a library that builds and
loads is used; anything else leaves the package importable, on the NumPy
round, with the same lanes.
"""

import json
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from repro.vector import kernel_backend, native

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

needs_compiler = pytest.mark.skipif(
    kernel_backend().name != "compiled",
    reason=f"no working C compiler here: {kernel_backend().error}",
)

#: what every child ends with: the backend, the library it loaded, and the
#: walks of one small seeded batch (field for field, wall time aside)
REPORT = """
import json, sys, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import repro.vector
    from repro.vector import native
    from repro.core.config import AdaptiveSearchConfig
    from repro.problems import make_problem
    from repro.vector.engine import VectorWalkEngine
    walks = []
    for family, n in (("magic_square", 5), ("costas", 9), ("all_interval", 10)):
        engine = VectorWalkEngine(
            make_problem(family, n=n), 3,
            AdaptiveSearchConfig(max_iterations=300), seeds=[1, 2, 3],
        )
        compiled = engine._compiled
        for walk in engine.run().walks:
            walks.append([
                walk.reason.name, walk.cost, walk.config.tolist(),
                walk.stats.iterations, walk.stats.swaps, walk.stats.resets,
                walk.stats.local_minima, walk.stats.plateau_moves,
            ])
backend = repro.vector.kernel_backend()
print(json.dumps({
    "backend": backend.name, "error": backend.error, "compiled": compiled,
    "library": str(native.LOADED.path) if native.LOADED.path else None,
    "warnings": [str(w.message) for w in caught], "walks": walks,
}))
"""


def child_env(cache: Path, **extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CC"}
    env["PYTHONPATH"] = str(REPO_SRC)
    env["XDG_CACHE_HOME"] = str(cache)
    env.update(extra)
    return env


def report(cache: Path, prelude: str = "", **extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", prelude + REPORT],
        capture_output=True, text=True, timeout=120,
        env=child_env(cache, **extra),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def libraries(cache: Path) -> list[str]:
    folder = cache / "repro"
    return sorted(p.name for p in folder.iterdir()) if folder.exists() else []


def test_a_compiler_that_fails_costs_the_speed_and_nothing_else(tmp_path):
    failed = report(tmp_path / "a", CC="/bin/false")
    assert failed["backend"] == "numpy" and not failed["compiled"]
    assert failed["library"] is None and libraries(tmp_path / "a") == []
    # one warning, carrying what the compiler said; then silence
    assert len(failed["warnings"]) == 1
    assert "/bin/false exited with status 1" in failed["warnings"][0]
    assert "/bin/false exited with status 1" in failed["error"]
    # same lanes as whatever this host runs by default
    assert failed["walks"] == report(tmp_path / "b")["walks"]


def test_no_compiler_at_all_is_quiet(tmp_path):
    missing = report(tmp_path, CC=str(tmp_path / "no-such-cc"))
    assert missing["backend"] == "numpy" and missing["warnings"] == []
    assert "no C compiler" in missing["error"]


@needs_compiler
def test_built_once_then_found(tmp_path):
    cold = report(tmp_path)
    assert cold["backend"] == "compiled" and cold["compiled"]
    assert cold["warnings"] == [] and cold["error"] == ""
    (name,) = libraries(tmp_path)
    assert cold["library"] == str(tmp_path / "repro" / name)
    assert name.startswith("lanes-") and name.endswith(".so")
    folder = tmp_path / "repro"
    assert stat.S_IMODE(folder.stat().st_mode) == 0o700
    built_at = (folder / name).stat().st_mtime_ns
    # a warm start needs no compiler: one that would fail is never run
    warm = report(tmp_path, CC="/bin/false")
    assert warm["backend"] == "compiled" and warm["warnings"] == []
    assert warm["library"] == cold["library"]
    assert (folder / name).stat().st_mtime_ns == built_at
    assert warm["walks"] == cold["walks"]


@needs_compiler
def test_two_cold_starters_at_once(tmp_path):
    children = [
        subprocess.Popen(
            [sys.executable, "-c", REPORT],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=child_env(tmp_path),
        )
        for _ in range(2)
    ]
    reports = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        reports.append(json.loads(out.splitlines()[-1]))
    assert [r["backend"] for r in reports] == ["compiled", "compiled"]
    assert reports[0]["library"] == reports[1]["library"]
    assert reports[0]["walks"] == reports[1]["walks"]
    # one file, whole, and no temporary left behind
    assert len(libraries(tmp_path)) == 1


@pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
def test_a_cache_others_can_write_to_is_not_used(tmp_path, mode):
    folder = tmp_path / "repro"
    folder.mkdir()
    folder.chmod(mode)
    shy = report(tmp_path)
    assert shy["backend"] == "numpy" and shy["library"] is None
    assert "writable by others" in shy["error"]
    assert shy["warnings"] == [] and libraries(tmp_path) == []


def test_a_cache_that_belongs_to_someone_else_is_not_used(tmp_path):
    (tmp_path / "repro").mkdir(mode=0o700)
    someone_else = "import os\nos.getuid = lambda: 2**31 - 7\n"
    shy = report(tmp_path, prelude=someone_else)
    assert shy["backend"] == "numpy" and shy["library"] is None
    assert "belongs to another user" in shy["error"]
    assert libraries(tmp_path) == []


@needs_compiler
@pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="needs /proc/<pid>/maps"
)
def test_an_edited_source_gets_its_own_file(tmp_path):
    """The file name is the hash of the source being imported: an edit is
    a new file, and the stale one is never mapped."""
    stale = report(tmp_path)["library"]
    # the loader, standing alone beside an edited copy of lanes.c
    package = tmp_path / "edited"
    package.mkdir()
    shutil.copy(native.__file__, package / "native.py")
    source = native.SOURCE.read_text()
    (package / "lanes.c").write_text(source + "\n/* edited */\n")
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import json, native\n"
            "maps = open('/proc/self/maps').read()\n"
            "print(json.dumps({'library': str(native.LOADED.path),\n"
            "    'mapped': sorted({l.split()[-1] for l in maps.splitlines()\n"
            "                      if '/lanes-' in l})}))",
        ],
        capture_output=True, text=True, timeout=120, cwd=package,
        env=child_env(tmp_path, PYTHONPATH=str(package)),
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["library"] != stale
    assert seen["mapped"] == [seen["library"]]
    assert sorted(libraries(tmp_path)) == sorted(
        Path(p).name for p in (stale, seen["library"])
    )


#: the walks of all four kinds, k = 3 at seeds 1-3 under the defaults and
#: under frequent resets, once on the library ``repro.vector`` loaded and
#: once on one built from ``sys.argv[1]``: every result field but the wall
#: time, and where each generator ended
CLONES = """
import dataclasses, json, sys
from pathlib import Path
import numpy as np
from repro.core.config import AdaptiveSearchConfig
from repro.problems import make_problem
from repro.vector import native
from repro.vector.engine import VectorWalkEngine

CONFIGS = (
    AdaptiveSearchConfig(max_iterations=3000),
    # frequent partial resets: the reset's draws run inside the clone too
    AdaptiveSearchConfig(
        reset_limit=1, freeze_swap=2, plateau_is_local_min=False,
        max_iterations=400,
    ),
)

def walks():
    out = []
    for family, n in (("magic_square", 8), ("costas", 12),
                      ("all_interval", 14), ("magic_square_model", 5)):
        for config in CONFIGS:
            generators = [np.random.default_rng(seed) for seed in (1, 2, 3)]
            engine = VectorWalkEngine(
                make_problem(family, n=n), 3, config, seeds=generators
            )
            assert engine._compiled, family
            for walk, generator in zip(engine.run().walks, generators):
                stats = dataclasses.asdict(walk.stats)
                del stats["wall_time"]
                out.append([
                    family, walk.reason.name, walk.solved, walk.cost,
                    walk.config.tolist(), stats,
                    generator.bit_generator.state["state"],
                ])
    return out

cloned = native.LOADED
cloned_walks = walks()
native.LOADED = plain = native.load_library(source=Path(sys.argv[1]))
print(json.dumps({
    "libraries": [str(cloned.path), str(plain.path)], "error": plain.error,
    "cloned": cloned_walks, "plain": walks(),
}))
"""


@needs_compiler
def test_the_clones_change_no_walk(tmp_path):
    """``lanes_run`` is compiled for x86-64-v4 and for baseline where GCC
    can, and the dynamic loader picks one: whichever runs, the walk is the
    one a build without the clone attribute makes (on an AVX-512 host, the
    v4 clone against the baseline build)."""
    lines = native.SOURCE.read_text().splitlines(keepends=True)
    plain = [line for line in lines if not line.startswith("__attribute__")]
    assert len(plain) == len(lines) - 1
    source = tmp_path / "lanes.c"
    source.write_text("".join(plain))
    proc = subprocess.run(
        [sys.executable, "-c", CLONES, str(source)],
        capture_output=True, text=True, timeout=300,
        env=child_env(tmp_path / "cache"),
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["error"] == ""
    cloned_library, plain_library = seen["libraries"]
    assert cloned_library != plain_library
    assert len(seen["cloned"]) == len(seen["plain"]) == 24
    for cloned, plain in zip(seen["cloned"], seen["plain"]):
        assert cloned == plain, cloned[0]
    # the walks did something a tie draw or a reset could bend
    stats = [walk[5] for walk in seen["cloned"]]
    assert sum(s["resets"] for s in stats) > 0
    assert sum(s["local_minima"] for s in stats) > 0
