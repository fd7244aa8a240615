"""The shared world: every entry point builds and sees the same system.

:func:`repro.net.world.build_world` is the one constructor behind the
lock-step simulator, the event engine, the live runtime and the cluster
workers.  The differential suites pin that their *executions* agree;
these tests pin what the adversary and the validation layer see of the
construction itself, where the entry points used to drift apart.
"""

from __future__ import annotations

import pytest

from repro.adversary.base import Adversary
from repro.coin.oracle import OracleCoin
from repro.core.clock_sync import SSByzClockSync
from repro.errors import ConfigurationError
from repro.net.events import ContinuousSimulation
from repro.net.simulator import Simulation
from repro.net.world import build_world
from repro.runtime import ClusterSpec, run_runtime

N, F, K = 10, 3, 6


def _factory(_node_id):
    return SSByzClockSync(K, OracleCoin)


class ShortHanded(Adversary):
    """Corrupts two ids although f=3, and records the f each view shows."""

    def __init__(self) -> None:
        super().__init__()
        self.view_fs: set[int] = set()

    def select_faulty(self, n, f, rng):
        return frozenset({n - 2, n - 1})

    def craft_messages(self, view):
        self.view_fs.add(view.f)
        return []


class TestAdversaryView:
    def test_view_f_is_the_world_f_under_every_entry_point(self):
        """An adversary corrupting fewer than f ids still sees the run's
        f, the bound its thresholds are computed from — live as in the
        lock-step and event-driven simulators."""
        sim_adversary = ShortHanded()
        Simulation(N, F, _factory, adversary=sim_adversary, seed=0).run(3)
        event_adversary = ShortHanded()
        ContinuousSimulation(
            N, F, _factory, adversary=event_adversary, seed=0
        ).run(3)
        live_adversary = ShortHanded()
        run_runtime(
            N, F, _factory, adversary=live_adversary, seed=0, beats=3,
            transport="local",
        )
        assert sim_adversary.view_fs == {F}
        assert event_adversary.view_fs == sim_adversary.view_fs
        assert live_adversary.view_fs == sim_adversary.view_fs


class TestBuildWorld:
    def test_faulty_set_and_towers(self):
        world = build_world(N, F, _factory, adversary=ShortHanded(), seed=0)
        assert world.faulty_ids == frozenset({8, 9})
        assert world.honest_ids == list(range(8))
        assert list(world.nodes) == world.honest_ids
        assert world.adversary.f == F

    def test_scramble_rejects_faulty_ids(self):
        world = build_world(N, F, _factory, adversary=ShortHanded(), seed=0)
        with pytest.raises(ConfigurationError, match=r"\[9\]"):
            world.scramble([0, 9])

    def test_resilience_can_be_waived_but_sizes_must_make_sense(self):
        world = build_world(
            4, 2, _factory, adversary=None, seed=0, enforce_resilience=False
        )
        assert world.faulty_ids == frozenset()
        with pytest.raises(ConfigurationError, match="nonsensical"):
            build_world(
                4, 4, _factory, adversary=None, seed=0,
                enforce_resilience=False,
            )


class TestOneSyncCheck:
    """``run_runtime`` and ``ClusterSpec`` reject the same barrier
    settings with the same message."""

    @pytest.mark.parametrize("settings", [
        {"sync": "cadence"},
        {"sync": "beat", "rho": 0.01},
        {"sync": "pulse", "rho": 1.5},
        {"sync": "pulse", "pulse_period": 0.0},
    ])
    def test_same_rejection(self, settings):
        with pytest.raises(ConfigurationError) as live:
            run_runtime(4, 1, _factory, beats=2, transport="local", **settings)
        with pytest.raises(ConfigurationError) as cluster:
            ClusterSpec(name="x", n=4, f=1, **settings).validate()
        assert str(live.value) == str(cluster.value)
