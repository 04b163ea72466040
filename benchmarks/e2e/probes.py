"""Direct probes: a fixed number of spin-bracketed calls of one public
function of one layer, timed from outside.

Each probe names the end-to-end metric it should move in the README's
layer table.  Probes of microsecond functions time a fixed batch of calls
as one operation; every batch and every single call is a span.  Counts
that come out of fixed seeded probes (``*_total``) are exact and must
repeat from run to run.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any, Callable

import numpy as np

import calib
from spans import Spans, span
from tree import use_checkout_source

use_checkout_source()

from repro import AdaptiveSearch, AdaptiveSearchConfig, make_problem  # noqa: E402
from repro.autoscale import Predictor  # noqa: E402
from repro.core import TerminationReason  # noqa: E402
from repro.gateway import (  # noqa: E402
    AdmissionController,
    ResultCache,
    WalkerPlanner,
    canonical_job_key,
)
from repro.gateway.http import read_request  # noqa: E402
from repro.net.protocol import (  # noqa: E402
    Message,
    encode_message,
    pickle_blob,
    recv_message,
    unpickle_blob,
)
from repro.net.results import outcome_to_message  # noqa: E402
from repro.parallel import WalkOutcome, walk_seeds  # noqa: E402
from repro.parallel.shm import SharedProblemStore, attach_problem  # noqa: E402
from repro.stats.fitting import best_fit  # noqa: E402
from repro.stats.order_stats import expected_min  # noqa: E402
from repro.vector import VectorWalkEngine, as_vector_problem  # noqa: E402

__all__ = ["Prober", "run_all"]

_BATCHES = 5


class Prober:
    """Times functions under the calibrated clock, one span per call or
    batch, and hands back the two estimators' values."""

    def __init__(self, clock: calib.Clock, spans: Spans) -> None:
        self.clock = clock
        self.spans = spans

    def batch_us(self, name: str, calls: int, fn: Callable[..., Any], *args: Any) -> float:
        """Calibrated microseconds per call over ``_BATCHES`` batches."""
        samples = []
        for _ in range(_BATCHES):
            with span(self.spans, name, "probe"):
                samples.append(self.clock.measure_batch(fn, calls, *args))
        return 1e3 * calib.mean_cal_ms(samples) / calls

    def each(
        self, name: str, fn: Callable[..., Any], argument_lists: list[tuple]
    ) -> tuple[list[Any], list[calib.Sample]]:
        """One bracketed call per argument tuple."""
        values, samples = [], []
        for args in argument_lists:
            with span(self.spans, name, "probe"):
                value, sample = self.clock.measure(fn, *args)
            values.append(value)
            samples.append(sample)
        return values, samples


def _walk_state(problem: Any) -> Any:
    return problem.init_state(problem.random_configuration(1))


def _problems(p: Prober) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, n in (("costas", 12), ("all_interval", 14), ("magic_square", 8)):
        problem = make_problem(name, n=n)
        out[f"problems.swap_deltas_cal_us.{name}_{n}"] = p.batch_us(
            "problems.swap_deltas", 200, problem.swap_deltas,
            _walk_state(problem), n // 2,
        )
    magic = make_problem("magic_square", n=8)
    state = _walk_state(magic)
    out["problems.apply_swap_cal_us.magic_square_8"] = p.batch_us(
        "problems.apply_swap", 500, magic.apply_swap, state, 3, 17
    )
    out["problems.variable_errors_cal_us.magic_square_8"] = p.batch_us(
        "problems.variable_errors", 200, magic.variable_errors, state
    )
    out["problems.make_problem_cal_us.costas_6"] = p.batch_us(
        "problems.make_problem", 100, lambda: make_problem("costas", n=6)
    )
    out["problems.make_problem_cal_us.magic_square_20"] = p.batch_us(
        "problems.make_problem", 100, lambda: make_problem("magic_square", n=20)
    )
    costas = make_problem("costas", n=6)
    out["problems.init_state_cal_us.costas_6"] = p.batch_us(
        "problems.init_state", 200, costas.init_state,
        costas.random_configuration(1),
    )
    return out


def _capped(budget: int) -> AdaptiveSearch:
    return AdaptiveSearch(AdaptiveSearchConfig(max_iterations=budget))


def _core_and_csp(p: Prober) -> dict[str, float]:
    out: dict[str, float] = {}
    model = make_problem("magic_square_model", n=5)
    out["csp.swap_deltas_cal_us.magic_square_model_5"] = p.batch_us(
        "csp.swap_deltas", 100, model.swap_deltas, _walk_state(model), 12
    )
    solver = _capped(300)
    seeds = [(model, s) for s in (1, 2, 3)]
    results, samples = p.each("csp.solve", solver.solve, seeds)
    out["csp.iters_per_cal_s.magic_square_model_5"] = calib.rate_per_cal_s(
        sum(r.stats.iterations for r in results), samples
    )

    totals = {"iterations": 0, "restarts": 0, "resets": 0}
    for name, n in (
        ("costas", 12), ("all_interval", 14), ("magic_square", 8),
        ("magic_square", 20),
    ):
        problem = make_problem(name, n=n)
        results, samples = p.each(
            "core.solve", solver.solve, [(problem, s) for s in (1, 2, 3)]
        )
        out[f"core.iters_per_cal_s.{name}_{n}"] = calib.rate_per_cal_s(
            sum(r.stats.iterations for r in results), samples
        )
        for key in totals:
            totals[key] += sum(getattr(r.stats, key) for r in results)
    for key, value in totals.items():
        out[f"core.{key}_total"] = float(value)
    out["core.walk_setup_cal_us"] = p.batch_us(
        "core.walk_setup", 20, _capped(1).solve, make_problem("costas", n=6), 1
    )
    return out


def _vector(p: Prober) -> dict[str, float]:
    out: dict[str, float] = {}
    config = AdaptiveSearchConfig(max_iterations=100)
    lane_iterations = rounds = 0
    magic = make_problem("magic_square", n=12)
    costas = make_problem("costas", n=14)
    for problem, label, k in (
        (magic, "magic_square_12", 2), (magic, "magic_square_12", 16),
        (magic, "magic_square_12", 128), (costas, "costas_14", 16),
    ):
        engines = [
            (VectorWalkEngine(problem, k, config, seed=s),) for s in (1, 2, 3)
        ]
        outcomes, samples = p.each(
            "vector.run", lambda engine: engine.run(), engines
        )
        done = sum(w.stats.iterations for o in outcomes for w in o.walks)
        out[f"vector.lane_iters_per_cal_s.k{k}.{label}"] = calib.rate_per_cal_s(
            done, samples
        )
        lane_iterations += done
        rounds += sum(engine.rounds for (engine,) in engines)
    out["vector.lane_iterations_total"] = float(lane_iterations)
    out["vector.rounds_total"] = float(rounds)
    out["vector.engine_build_cal_us.k16"] = p.batch_us(
        "vector.engine_build", 20, lambda: VectorWalkEngine(magic, 16, seed=1)
    )
    out["vector.as_vector_problem_cal_us"] = p.batch_us(
        "vector.as_vector_problem", 50, as_vector_problem, magic, 16
    )
    return out


def _parallel(p: Prober) -> dict[str, float]:
    out = {
        "parallel.walk_seeds_cal_us.k16": p.batch_us(
            "parallel.walk_seeds", 100, walk_seeds, 16, 7
        )
    }
    problem = make_problem("magic_square", n=20)
    publishes, attaches = [], []
    with SharedProblemStore(prefix="e2e") as store:
        for _ in range(20):
            with span(p.spans, "parallel.shm_publish", "probe"):
                manifest, sample = p.clock.measure(store.publish, problem)
            publishes.append(sample)
            with span(p.spans, "parallel.shm_attach", "probe"):
                attached, sample = p.clock.measure(attach_problem, manifest)
            attaches.append(sample)
            attached.detach()
            store.release(manifest)
    out["parallel.shm_publish_cal_us"] = 1e3 * calib.mean_cal_ms(publishes)
    out["parallel.shm_attach_cal_us"] = 1e3 * calib.mean_cal_ms(attaches)
    return out


def _net_codec(p: Prober) -> dict[str, float]:
    fields = {
        "job_id": 7, "generation": 0, "walk_ids": list(range(16)),
        "trace_id": "0123456789abcdef", "priority": 0,
    }
    payload = {
        "problem_digest": "0" * 32,
        "config": AdaptiveSearchConfig(max_iterations=150),
        "seeds": dict(enumerate(walk_seeds(16, 7))),
    }

    def encode_assign() -> bytes:
        return encode_message(Message("assign", fields, blob=pickle_blob(payload)))

    frame = encode_assign()
    calls = 100
    left, right = socket.socketpair()
    try:
        # receive side of an assign: frame off a socket, header parsed,
        # CRC checked, blob unpickled — everything the agent does before
        # it can start a walk
        def decode_assign() -> None:
            unpickle_blob(recv_message(right).blob)

        samples = []
        for _ in range(_BATCHES):
            left.sendall(frame * calls)
            with span(p.spans, "net.decode_assign", "probe"):
                samples.append(p.clock.measure_batch(decode_assign, calls))
    finally:
        left.close()
        right.close()
    outcome = WalkOutcome(
        walk_id=3, solved=True, cost=0.0, iterations=150, wall_time=0.01,
        reason=TerminationReason.SOLVED, config=np.arange(400),
    )
    return {
        "net.encode_cal_us.assign": p.batch_us("net.encode_assign", 200, encode_assign),
        "net.decode_cal_us.assign": 1e3 * calib.mean_cal_ms(samples) / calls,
        "net.encode_cal_us.walk_result": p.batch_us(
            "net.encode_walk_result", 200,
            lambda: encode_message(outcome_to_message(7, 0, outcome)),
        ),
    }


def _gateway(p: Prober) -> dict[str, float]:
    body = json.dumps(
        {"problem": "costas", "params": {"n": 6}, "seed": 11, "n_walkers": 2,
         "config": {"max_iterations": 64}}
    ).encode()
    raw = (
        b"POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Type: application/json\r\nX-API-Key: e2e-bench\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
    )
    loop = asyncio.new_event_loop()

    async def parse() -> None:
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        await read_request(reader)

    try:
        http_parse = p.batch_us(
            "gateway.http_parse", 100, lambda: loop.run_until_complete(parse())
        )
    finally:
        loop.close()
    cache = ResultCache()
    key = canonical_job_key(
        "costas", {"n": 6}, n_walkers=2, seed=11, config={"max_iterations": 64}
    )
    cache.put(key, {"status": "solved"})
    admission = AdmissionController(capacity=64)
    # what the served workloads do not pay because server.py freezes the
    # planner: one record() on a history whose best fit is the lognormal
    planner = WalkerPlanner()
    for wall in np.random.default_rng(3).lognormal(-2.0, 1.0, size=40):
        planner.record("costas", float(wall))
    return {
        "gateway.http_parse_cal_us": http_parse,
        "gateway.planner_record_cal_ms": p.batch_us(
            "gateway.planner_record", 1, planner.record, "costas", 0.1
        )
        / 1e3,
        "gateway.admit_cal_us": p.batch_us(
            "gateway.admit", 2000, admission.admit, 1, 0, 16
        ),
        "gateway.canonical_key_cal_us": p.batch_us(
            "gateway.canonical_key", 500,
            lambda: canonical_job_key(
                "costas", {"n": 6}, n_walkers=2, seed=11,
                config={"max_iterations": 64},
            ),
        ),
        "gateway.cache_get_cal_us": p.batch_us(
            "gateway.cache_get", 2000, cache.get, key
        ),
    }


def _autoscale_and_stats(p: Prober) -> dict[str, float]:
    walls = np.random.default_rng(3).exponential(0.2, size=200) + 0.01
    predictor = Predictor()
    for wall in walls:
        predictor.observe("costas", float(wall), size=12)
    fit = best_fit(walls)
    return {
        "autoscale.decide_cal_us": p.batch_us(
            "autoscale.decide", 5, predictor.decide, "costas", 12
        ),
        "autoscale.record_cal_us": p.batch_us(
            "autoscale.record", 200, predictor.observe, "costas", 0.2, 12
        ),
        "stats.best_fit_cal_ms": p.batch_us("stats.best_fit", 2, best_fit, walls)
        / 1e3,
        "stats.expected_min_cal_us": p.batch_us(
            "stats.expected_min", 10, expected_min, fit, 16
        ),
    }


def run_all(clock: calib.Clock, spans: Spans) -> dict[str, float]:
    """Every direct probe once; ``{metric name: value}``."""
    prober = Prober(clock, spans)
    out: dict[str, float] = {}
    for layer in (
        _problems, _core_and_csp, _vector, _parallel, _net_codec, _gateway,
        _autoscale_and_stats,
    ):
        out.update(layer(prober))
    return out
