"""Trajectory pins that need no second checkout.

The sequential engine's kernels are rewritten for speed from time to time;
each rewrite claims *the same walks, cheaper*.  ``tests/vector`` holds the
scalar engine to the lane kernels; this file holds it to itself:

- a golden table recorded at the commit before the kernels were first
  rewritten (PR 17) — per seeded walk its ``iterations, swaps, local_minima,
  resets, restarts`` and a hash of the final configuration, under the
  problems' default tuning and under two configurations chosen to exercise
  what the defaults rarely reach (partial resets, restarts, ``freeze_swap``
  marks, plateau moves, every variable frozen at once, an exhausted budget);
- the declarative magic square walks the trajectory of the native one, so
  the stacked linear block of :mod:`repro.csp.model` and the hand-written
  kernel pin each other.

A changed row means a changed trajectory: a kernel that rounds, ties or
draws differently, not a slower one.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import AdaptiveSearch, AdaptiveSearchConfig, make_problem


def walk_row(result):
    stats = result.stats
    digest = hashlib.sha256(
        np.asarray(result.config, dtype="<i8").tobytes()
    ).hexdigest()[:12]
    return (
        stats.iterations, stats.swaps, stats.local_minima, stats.resets,
        stats.restarts, digest,
    )


# (iterations, swaps, local_minima, resets, restarts, sha256(config)[:12])
# per seed 0..4, every walk solved
DEFAULT_WALKS = {
    ('costas', ('n', 12)): [
        (697, 442, 519, 0, 0, 'd183a553f79a'),
        (60, 34, 46, 0, 0, '78269733d9ab'),
        (1134, 711, 852, 0, 0, 'caf18abc7880'),
        (136, 84, 99, 0, 0, 'c96e7315f808'),
        (551, 348, 400, 0, 0, '29f87dac34ba'),
    ],
    ('all_interval', ('n', 14)): [
        (2429, 1406, 2123, 0, 0, '7c0c4490bea8'),
        (1836, 1039, 1620, 0, 0, '3d7557a38912'),
        (146, 81, 125, 0, 0, '8c9df16ccbfb'),
        (1115, 641, 989, 0, 0, '86d1c8a03db7'),
        (193, 92, 169, 0, 0, '880e7aa3490d'),
    ],
    ('magic_square', ('n', 8)): [
        (5448, 3467, 3988, 0, 0, 'f32dc47e8bd9'),
        (1944, 1246, 1400, 0, 0, '41b3a90f24f9'),
        (2803, 1813, 2031, 0, 0, '4df5107a20dd'),
        (4071, 2562, 3026, 0, 0, 'f000b6dbfcef'),
        (1688, 1053, 1242, 0, 0, '33893367d3f5'),
    ],
    ('magic_square_model', ('n', 5)): [
        (812, 523, 577, 0, 0, '17b0579d43aa'),
        (188, 117, 127, 0, 0, 'f0003a1c683f'),
        (2086, 1334, 1513, 0, 0, 'b2e425071fb8'),
        (378, 241, 267, 0, 0, 'eaeae90fbeed'),
        (170, 104, 119, 0, 0, '4af29a19e8ec'),
    ],
    ('queens', ('n', 20)): [
        (14, 8, 7, 0, 0, 'a63bad3113cf'),
        (43, 20, 33, 0, 0, 'c7133f5e87de'),
        (13, 8, 7, 0, 0, '040f0e52ddea'),
        (7, 7, 1, 0, 0, 'decde1944d9a'),
        (54, 20, 46, 0, 0, '12438f5e09d6'),
    ],
    ('perfect_square', ('instance', 'moron')): [
        (235, 150, 147, 10, 0, '86efe3165f1f'),
        (276, 194, 179, 11, 0, '86efe3165f1f'),
        (202, 136, 133, 6, 0, '86efe3165f1f'),
        (146, 102, 84, 4, 0, '86efe3165f1f'),
        (773, 515, 493, 33, 0, '86efe3165f1f'),
    ],
}

STRESS_CONFIGS = {
    "churn": AdaptiveSearchConfig(
        reset_limit=1, restart_limit=60, freeze_swap=2,
        plateau_is_local_min=False, max_iterations=400,
    ),
    "all_frozen": AdaptiveSearchConfig(
        freeze_loc_min=40, reset_limit=10**6, prob_select_loc_min=0.0,
        max_iterations=250,
    ),
}

# (solved, iterations, swaps, local_minima, resets, restarts, hash) per
# seed 0..2
STRESS_WALKS = {
    ('churn', 'costas', 10): [
        (1, 100, 84, 33, 15, 1, '8476d346514d'),
        (1, 68, 54, 24, 14, 1, '8cc54a93149c'),
        (1, 45, 36, 12, 9, 0, 'dabf0f0fcd5e'),
    ],
    ('churn', 'all_interval', 12): [
        (1, 28, 27, 2, 1, 0, 'f43bf307a675'),
        (1, 295, 270, 44, 25, 4, 'ff2fe8897d9c'),
        (0, 400, 367, 64, 33, 6, '2362debfd912'),
    ],
    ('churn', 'magic_square', 5): [
        (0, 400, 368, 52, 32, 6, '952880048aa0'),
        (0, 400, 374, 60, 26, 6, 'e7f4081d98ae'),
        (0, 400, 375, 57, 25, 6, '095805136bde'),
    ],
    ('churn', 'magic_square_model', 4): [
        (1, 17, 15, 3, 1, 0, 'a22dcd995092'),
        (1, 168, 146, 42, 21, 2, '3db1fb840471'),
        (1, 42, 39, 7, 3, 0, 'e6dee3b4c1da'),
    ],
    ('all_frozen', 'costas', 10): [
        (1, 27, 5, 20, 2, 0, 'cbeda20c87fb'),
        (1, 105, 17, 80, 8, 0, 'cfc38f0156f5'),
        (1, 109, 20, 81, 8, 0, 'a5f7d70eb801'),
    ],
    ('all_frozen', 'all_interval', 12): [
        (0, 250, 26, 207, 17, 0, 'bd60d0b5fc5c'),
        (1, 209, 27, 168, 14, 0, '2fe249b4888a'),
        (1, 201, 25, 163, 13, 0, '34c0dbcafe5d'),
    ],
    ('all_frozen', 'magic_square', 5): [
        (0, 250, 77, 167, 6, 0, '63691365ea36'),
        (0, 250, 83, 161, 6, 0, '89fcc14630a6'),
        (0, 250, 70, 174, 6, 0, '11e0b518124d'),
    ],
    ('all_frozen', 'magic_square_model', 4): [
        (0, 250, 44, 194, 12, 0, '1faf8bc5a532'),
        (1, 136, 33, 97, 6, 0, '12e21f7db9af'),
        (1, 147, 41, 100, 6, 0, 'ad8f1c96f75c'),
    ],
}


@pytest.mark.parametrize("case", sorted(DEFAULT_WALKS), ids=lambda c: c[0])
def test_default_tuning_walks_are_the_recorded_ones(case):
    name, (param, value) = case
    problem = make_problem(name, **{param: value})
    for seed, expected in enumerate(DEFAULT_WALKS[case]):
        result = AdaptiveSearch().solve(problem, seed=seed)
        assert result.solved
        assert walk_row(result) == expected, f"{name} seed {seed}"


@pytest.mark.parametrize(
    "case", sorted(STRESS_WALKS), ids=lambda c: f"{c[0]}-{c[1]}"
)
def test_stress_configuration_walks_are_the_recorded_ones(case):
    label, name, n = case
    problem = make_problem(name, n=n)
    solver = AdaptiveSearch(STRESS_CONFIGS[label])
    for seed, expected in enumerate(STRESS_WALKS[case]):
        result = solver.solve(problem, seed=seed)
        assert (int(result.solved),) + walk_row(result) == expected, (
            f"{label} {name} seed {seed}"
        )


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("seed", range(4))
def test_declarative_magic_square_walks_the_native_trajectory(n, seed):
    native = AdaptiveSearch().solve(make_problem("magic_square", n=n), seed=seed)
    model = AdaptiveSearch().solve(
        make_problem("magic_square_model", n=n), seed=seed
    )
    assert model.solved and native.solved
    assert np.array_equal(model.config, native.config)
    assert model.stats == dataclasses.replace(
        native.stats, wall_time=model.stats.wall_time
    )
