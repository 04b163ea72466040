"""Which processes load scipy, checked as sets of module names.

scipy is two thirds of the served stack's import time and 63 MB of every
process that loads it, and only a process that *fits* a runtime
distribution needs it (DESIGN.md, "Start-up and resident set").  The rule
— ``repro.stats`` imports scipy inside the functions that call it, and
nothing on a start-up path calls them — is held here by fresh
interpreters (this pytest process has scipy loaded long before it gets
here), each reporting what ``sys.modules`` holds.  No timings: the e2e
harness is where time is gated.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.stats import ComparisonResult, best_fit, compare_runtimes, refreeze

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

#: what every child reports with: the scipy modules it has loaded
SCIPY_MODULES = (
    'sorted(m for m in sys.modules if m.split(".")[0] == "scipy")'
)


def _child(code: str, cwd: Path | None = None, **extra_env: str):
    """Run ``code`` in a fresh interpreter; the JSON on its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.service.worker",
        "repro.service",
        "repro.net",
        "repro.gateway",
        "repro.gateway.testing",
        "repro.autoscale",
        "repro.cli",
    ],
)
def test_importing_the_stack_loads_no_scipy(module):
    loaded = _child(f"import {module}\nprint(json.dumps({SCIPY_MODULES}))")
    assert loaded == []


def test_parser_and_a_plain_verb_load_no_scipy():
    loaded = _child(
        "from repro.cli import build_parser, main\n"
        "build_parser()\n"
        'assert main(["problems"]) == 0\n'
        f"print(json.dumps({SCIPY_MODULES}))"
    )
    assert loaded == []


# ----------------------------------------------------------------------
# the functions that fit load it, once, and compute what they always did
# ----------------------------------------------------------------------
SAMPLES = np.random.default_rng(19).lognormal(0.0, 0.7, 40).tolist()

FIT_FIELDS = "name params mean ks_statistic ks_pvalue log_likelihood".split()


def _record(value, fields) -> dict:
    """``value``'s fields as they read after a trip through JSON."""
    return json.loads(json.dumps({f: getattr(value, f) for f in fields}))


def _first_call(call: str, fields) -> dict:
    """``call``'s fields from a child that has imported only ``repro.stats``,
    which must find no scipy loaded before the call and scipy.stats after."""
    seen = _child(
        "import repro.stats as st\n"
        f"before = {SCIPY_MODULES}\n"
        f"samples = {SAMPLES!r}\n"
        f"value = {call}\n"
        f"record = {{f: getattr(value, f) for f in {list(fields)!r}}}\n"
        "print(json.dumps({'before': before, 'record': record,\n"
        "                  'after': 'scipy.stats' in sys.modules}))"
    )
    assert seen["before"] == [] and seen["after"]
    return seen["record"]


def test_best_fit_loads_scipy_and_fits_the_same():
    there = _first_call("st.best_fit(samples)", FIT_FIELDS)
    assert there == _record(best_fit(SAMPLES), FIT_FIELDS)


def test_refreeze_loads_scipy_and_freezes_the_same():
    # a refrozen fit's goodness-of-fit fields are NaN, and NaN != NaN
    fields = ["name", "params", "mean"]
    there = _first_call('st.refreeze("lognormal", (0.7, 0.0, 1.3))', fields)
    assert there == _record(refreeze("lognormal", (0.7, 0.0, 1.3)), fields)


def test_compare_runtimes_loads_scipy_and_compares_the_same():
    fields = [f.name for f in dataclasses.fields(ComparisonResult)]
    there = _first_call(
        "st.compare_runtimes(samples[:20], samples[20:], n_boot=50, rng=7)",
        fields,
    )
    here = compare_runtimes(SAMPLES[:20], SAMPLES[20:], n_boot=50, rng=7)
    assert there == _record(here, fields)


# ----------------------------------------------------------------------
# a forked pool worker maps none of it
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="needs /proc/<pid>/maps"
)
def test_pool_workers_map_no_scipy():
    report = _child(
        "import repro.gateway, repro.net\n"
        "from repro.service.pool import WorkerPool\n"
        "pool = WorkerPool(2)\n"
        "try:\n"
        "    lines = []\n"
        "    for pid in pool.worker_pids():\n"
        "        with open(f'/proc/{pid}/maps') as maps:\n"
        # the package's directories, not the bare word: numpy's own
        # OpenBLAS is called libscipy_openblas
        "            lines += [l for l in maps\n"
        "                      if '/scipy/' in l or '/scipy.libs/' in l]\n"
        "    workers = len(pool.worker_pids())\n"
        "finally:\n"
        "    pool.shutdown()\n"
        "print(json.dumps({'workers': workers, 'scipy_lines': lines}))"
    )
    assert report == {"workers": 2, "scipy_lines": []}


# ----------------------------------------------------------------------
# the compiled lane kernels: built and mapped by ``import repro.vector``,
# so by everything that serves lanes and by nothing that does not
# ----------------------------------------------------------------------
#: child prelude: the ``lanes-<hash>.so`` files a process has mapped
MAPPED = (
    "def mapped(pid):\n"
    "    with open(f'/proc/{pid}/maps') as maps:\n"
    "        return sorted({l.split()[-1] for l in maps if '/lanes-' in l})\n"
)

needs_proc_maps = pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="needs /proc/<pid>/maps"
)


@needs_proc_maps
def test_plain_imports_and_verbs_start_no_compiler(tmp_path):
    """``import repro``, ``repro.cli`` and ``repro problems`` do not import
    ``repro.vector``: with an empty cache and a compiler that leaves a mark
    when run, no mark, no cache, nothing mapped."""
    mark = tmp_path / "compiler-ran"
    compiler = tmp_path / "cc"
    compiler.write_text(f"#!/bin/sh\ntouch {mark}\nexit 1\n")
    compiler.chmod(0o755)
    cache = tmp_path / "cache"
    report = _child(
        MAPPED + "import repro, repro.cli\n"
        "from repro.cli import main\n"
        'assert main(["problems"]) == 0\n'
        "print(json.dumps({'vector': 'repro.vector' in sys.modules,\n"
        "                  'mapped': mapped('self')}))",
        CC=str(compiler),
        XDG_CACHE_HOME=str(cache),
    )
    assert report == {"vector": False, "mapped": []}
    assert not mark.exists() and not cache.exists()
    # the mark works: the same child importing the lane engine leaves it
    _child(
        "import warnings\n"
        "warnings.simplefilter('ignore')\n"
        "import repro.vector\n"
        "print(json.dumps(None))",
        CC=str(compiler),
        XDG_CACHE_HOME=str(cache),
    )
    assert mark.exists()


def test_a_warm_lane_engine_import_is_the_engine_and_nothing_else(tmp_path):
    """``AdaptiveSearch.solve`` imports ``repro.vector`` on its first call,
    so a one-walk ``repro solve`` pays for whatever that import drags in.
    Measured: the modules ``import repro; import repro.vector`` adds over
    the interpreter's own start-up, on a cache this test warms with a first
    child.  On it the import loads no executor stack (``walk_seeds`` is
    imported where an engine derives its own seeds) and no build machinery
    (imported by ``native._build``, which does not run).  A watched name
    that ``site`` preloads on some host (``tempfile``, say, where a
    ``.pth`` hook imports ``certifi``) is not added there, so cannot be
    seen there; it is checked on every host that does not preload it.  That
    the second child built nothing is checked on the cache itself, on every
    host: the library the first child built keeps its inode and its
    modification time, and no build's scratch file is left beside it."""
    cache = str(tmp_path / "cache")
    folder = tmp_path / "cache" / "repro"

    def libraries():
        return {
            path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in folder.glob("lanes-*.so")
        }

    _child("import repro.vector\nprint(json.dumps(None))", XDG_CACHE_HOME=cache)
    warmed = libraries()
    report = _child(
        "before = set(sys.modules)\n"
        "import repro\n"
        "import repro.vector\n"
        "from repro.vector import native\n"
        "print(json.dumps({\n"
        "    'compiled': native.LOADED.lib is not None,\n"
        "    'loaded': sorted(m for m in ('repro.parallel', 'subprocess',\n"
        "        'multiprocessing', 'tempfile', 'shlex')\n"
        "        if m in sys.modules and m not in before),\n"
        "}))",
        XDG_CACHE_HOME=cache,
    )
    if not report["compiled"]:
        pytest.skip("no compiled library could be built or loaded on this host")
    assert report["loaded"] == []
    assert len(warmed) == 1 and libraries() == warmed
    assert list(folder.glob(".lanes-*.tmp")) == []


def test_the_first_solve_loads_the_lane_engine_not_import_repro():
    report = _child(
        "import repro\n"
        "before = 'repro.vector' in sys.modules\n"
        "repro.AdaptiveSearch().solve(repro.make_problem('costas', n=6), 1)\n"
        "print(json.dumps([before, 'repro.vector' in sys.modules]))"
    )
    assert report == [False, True]


@needs_proc_maps
def test_forked_pool_workers_map_the_parents_library():
    """``import repro.service`` loads ``lanes.c`` before the pool forks: a
    worker inherits the mapping and never builds or loads anything."""
    report = _child(
        MAPPED + "import repro.service\n"
        "from repro.service.pool import WorkerPool\n"
        "from repro.vector import native\n"
        "pool = WorkerPool(2)\n"
        "try:\n"
        "    workers = [mapped(pid) for pid in pool.worker_pids()]\n"
        "finally:\n"
        "    pool.shutdown()\n"
        "library = str(native.LOADED.path) if native.LOADED.path else None\n"
        "print(json.dumps({'library': library, 'workers': workers,\n"
        "                  'parent': mapped('self')}))"
    )
    expected = [report["library"]] if report["library"] else []
    assert report["parent"] == expected
    assert report["workers"] == [expected, expected]


# ----------------------------------------------------------------------
# the long-lived verbs: who has it loaded by the time they serve
# ----------------------------------------------------------------------
#: every serving verb blocks in ``asyncio.run``; the child swaps that for
#: a stub that records whether scipy.stats is loaded and returns
ASYNC_VERB = (
    "import asyncio\n"
    "from repro.cli import main\n"
    "seen = []\n"
    "def serve(coro, **kwargs):\n"
    "    coro.close()\n"
    "    seen.append('scipy.stats' in sys.modules)\n"
    "asyncio.run = serve\n"
    "status = main({argv!r})\n"
    "print(json.dumps({{'status': status, 'seen': seen}}))"
)


@pytest.mark.parametrize(
    "argv, preloads",
    [
        (["gateway", "--connect", "127.0.0.1:1"], True),
        (["coordinator", "--autoscale", "models.json"], True),
        (["coordinator"], False),
        (["node", "--connect", "127.0.0.1:1", "--workers", "1"], False),
    ],
    ids=["gateway", "coordinator-autoscale", "coordinator", "node"],
)
def test_serving_verbs_preload_iff_they_fit(tmp_path, argv, preloads):
    report = _child(ASYNC_VERB.format(argv=argv), cwd=tmp_path)
    assert report == {"status": 0, "seen": [preloads]}


def test_service_verb_forks_its_pool_without_scipy():
    # `repro service` blocks in run_specs, after the pool is forked
    report = _child(
        "import repro.service\n"
        "from repro.cli import main\n"
        "seen = []\n"
        "def run_specs(service, specs, config=None):\n"
        "    seen.append('scipy.stats' in sys.modules)\n"
        "    return []\n"
        "repro.service.run_specs = run_specs\n"
        'status = main(["service", "--family", "costas", "--set", "n=6",\n'
        '               "--jobs", "1", "--walkers", "1", "--workers", "1"])\n'
        "print(json.dumps({'status': status, 'seen': seen}))"
    )
    assert report == {"status": 0, "seen": [False]}
