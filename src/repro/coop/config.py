"""Tuning of the cross-node island model.

:class:`CoopConfig` is the single knob bundle a cooperative cluster job
carries: the migration topology, the synchronized-round cadence, and the
adoption policy every island applies locally.  It is deliberately a plain
JSON-safe record (:meth:`to_wire` / :meth:`from_wire`) because it travels
inside ``submit`` and ``assign`` frames — protocol v6 ships it to every
island verbatim, so all islands of one job agree on the scheme without any
out-of-band coordination.

Determinism: ``seed`` fixes the per-island adoption RNG streams (island
``i`` draws from ``SeedSequence(seed, spawn_key=(COOP_STREAM, i))``), and
the coordinator's relay is a pure function of the reports of each round —
same seed + same topology therefore reproduces the exact migration event
log, which the test suite asserts bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.errors import CoopError
from repro.parallel.cooperative import CooperationConfig

__all__ = ["CoopConfig", "TOPOLOGIES"]

#: supported migration topologies (see :mod:`repro.coop.topology`)
TOPOLOGIES = ("ring", "islands", "all_to_all", "star")

#: spawn-key namespace separating island adoption streams from walk seeds
COOP_STREAM = 0xC0

#: key order of the wire dict (fixed so coop frames stay byte-identical)
_WIRE_FIELDS = (
    "topology", "report_interval", "adopt_interval", "migration_interval",
    "p_adopt", "pool_size", "min_relative_gain", "perturb_fraction",
    "group_size", "migration_timeout", "seed",
)


@dataclass(frozen=True)
class CoopConfig(CooperationConfig):
    """Cooperative (dependent multi-walk) scheme for one cluster job.

    The local adoption policy (``report_interval``, ``adopt_interval``,
    ``p_adopt``, ``pool_size``, ``min_relative_gain``,
    ``perturb_fraction``) is inherited from
    :class:`~repro.parallel.cooperative.CooperationConfig`; this class
    adds who migrates to whom, and when.

    Parameters
    ----------
    topology:
        who migrates to whom each migration round — ``"ring"`` (island i's
        elite goes to island i+1), ``"islands"`` (all-to-all within groups
        of ``group_size``), ``"all_to_all"`` (everyone to everyone), or
        ``"star"`` (coordinator-mediated: the round's best island's elite
        goes to everyone else).
    migration_interval:
        island rounds between cross-island exchanges; 1 = every round
        sends an ``elite_report`` and waits for the ``elite_push``.
    group_size:
        group width for the ``"islands"`` topology (ignored otherwise).
    migration_timeout:
        seconds an island waits for its ``elite_push`` before giving the
        round up as lost and continuing independently — the graceful
        degradation path when links drop migrations.
    seed:
        integer seeding every island's adoption RNG deterministically;
        ``None`` lets the client fill it from the job seed (or randomly),
        so explicit seeding is only needed for replays.
    """

    topology: str = "ring"
    migration_interval: int = 1
    group_size: int = 2
    migration_timeout: float = 5.0
    seed: int | None = None

    _error = CoopError

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.topology not in TOPOLOGIES:
            raise CoopError(
                f"unknown topology {self.topology!r}; "
                f"choose one of {', '.join(TOPOLOGIES)}"
            )
        self._check_counts("migration_interval", "group_size")
        if self.migration_timeout <= 0:
            raise CoopError(
                f"migration_timeout must be > 0, got {self.migration_timeout}"
            )
        if self.seed is not None and (
            not isinstance(self.seed, int) or self.seed < 0
        ):
            raise CoopError(f"seed must be a non-negative int, got {self.seed!r}")

    # ------------------------------------------------------------------
    def to_wire(self) -> dict[str, Any]:
        """JSON-safe dict for submit/assign frames (round-trips exactly)."""
        return {name: getattr(self, name) for name in _WIRE_FIELDS}

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "CoopConfig":
        """Validate and rebuild from a wire dict (unknown keys rejected)."""
        if not isinstance(data, Mapping):
            raise CoopError(f"coop config must be a mapping, got {type(data).__name__}")
        unknown = set(data) - set(_WIRE_FIELDS)
        if unknown:
            raise CoopError(
                f"unknown coop config field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**dict(data))

    def with_seed(self, seed: int) -> "CoopConfig":
        """A copy with ``seed`` filled in (no-op if already set)."""
        if self.seed is not None:
            return self
        return replace(self, seed=int(seed))
