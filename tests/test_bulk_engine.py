"""Differential bit-identity of the bulk engine vs the reference engine.

The bulk engine (:mod:`repro.net.bulk`) is only allowed to exist because
its runs are *bit-identical* to the reference engine: same per-beat clock
values, same convergence beats, same traffic statistics (including link
casualties), same RNG stream consumption — across every registered
protocol, every link model, fault-free and adversarial runs, transient
faults and phantom storms.  This suite is the safety net the tentpole
stands on; it mirrors (and extends) ``tests/test_engines.py``.
"""

from __future__ import annotations

import pytest

from repro.adversary import EquivocatorAdversary, SplitWorldAdversary
from repro.analysis.campaign import ScenarioSpec, iter_campaign
from repro.analysis.convergence import ClockConvergenceMonitor
from repro.analysis.experiments import TrialConfig, run_trial
from repro.coin.feldman_micali import FeldmanMicaliCoin
from repro.coin.oracle import OracleCoin
from repro.core.clock_sync import SSByzClockSync
from repro.core.protocol import PROTOCOLS, resolve_protocol
from repro.faults.network_faults import inject_phantom_storm
from repro.net.bulk import BulkEngine, build_bulk_program, has_bulk_program
from repro.net.engine import ENGINES, resolve_engine
from repro.net.linkmodel import make_link
from repro.net.simulator import Simulation

# Heavyweight differential matrix: deselected by the CI fast lane.
pytestmark = pytest.mark.slow

SEEDS = range(10)

#: Every non-perfect link model, with a parameterization that actually
#: bites at n=4 within the test's beat budget.
LINKS = (
    ("delay", {"max_delay": 2}),
    ("lossy", {"loss": 0.3}),
    ("partition", {"split": 3, "heal": 12}),
    ("partition", {"split": 2, "heal": 6, "period": 10}),
)

#: The phantom-storm pin adds perfect links and a partition whose window
#: covers the storm beat (20), where the vectorized path routes phantoms.
STORM_LINKS = (
    ("perfect", None),
    *LINKS,
    ("partition", {"split": 15, "heal": 30}),
)


def _coin_factory():
    return OracleCoin(p0=0.4, p1=0.4, rounds=2)


def _observe(engine, seed, adversary_factory, *, beats=40, storm_at=None,
             factory=None, k=6, link="perfect", link_params=None,
             share_coin=False, coin="oracle"):
    """Run one scrambled n=4 trial; return every observable."""
    if factory is None:
        if coin == "gvss":
            coin_factory = lambda: FeldmanMicaliCoin(4, 1)
        else:
            coin_factory = _coin_factory
        factory = lambda i: SSByzClockSync(
            k, coin_factory, share_coin=share_coin
        )
    link_model = make_link(link, link_params) if link_params else link
    sim = Simulation(
        4, 1, factory, adversary=adversary_factory(), seed=seed,
        engine=engine, link=link_model,
    )
    monitor = ClockConvergenceMonitor(k)
    sim.add_monitor(monitor)
    sim.scramble()
    if storm_at is None:
        sim.run(beats)
    else:
        sim.run(storm_at)
        sim.scramble()
        inject_phantom_storm(
            sim, ["root", "root/A/A1", "bogus/path"], count=60
        )
        sim.run(beats - storm_at)
    per_beat = [sim.stats.messages_at_beat(b) for b in range(beats)]
    return (
        monitor.history,
        monitor.convergence_beat(),
        sim.stats.total_messages,
        sim.stats.honest_messages,
        sim.stats.byzantine_messages,
        sim.stats.dropped_messages,
        sim.stats.delayed_messages,
        dict(sim.stats.dropped_per_beat),
        per_beat,
        dict(sim.stats.per_path_prefix),
    )


class TestClockSyncDifferential:
    """The paper's tower, vectorized: the hardest program to get right."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fault_free_runs_identical(self, seed):
        assert _observe("reference", seed, lambda: None) == _observe(
            "bulk", seed, lambda: None
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adversarial_runs_identical(self, seed):
        ref = _observe("reference", seed, EquivocatorAdversary)
        assert ref == _observe("bulk", seed, EquivocatorAdversary)

    @pytest.mark.parametrize("link,params", STORM_LINKS)
    @pytest.mark.parametrize("seed", range(4))
    def test_scramble_and_phantom_storm_identical(self, seed, link, params):
        """Mid-run scramble exercises the stale-reload hook; the storm
        exercises the per-receiver dirty merge (incl. unknown paths),
        under every link model — phantoms bypass the link layer while
        the traffic around them is delayed or dropped."""
        for adversary_factory in (lambda: None, SplitWorldAdversary):
            ref = _observe(
                "reference", seed, adversary_factory, beats=60, storm_at=20,
                link=link, link_params=params,
            )
            blk = _observe(
                "bulk", seed, adversary_factory, beats=60, storm_at=20,
                link=link, link_params=params,
            )
            assert ref == blk

    @pytest.mark.parametrize("seed", range(6))
    def test_shared_coin_variant_identical(self, seed):
        """Remark 4.1's shared pipeline changes the coin-key set."""
        for adversary_factory in (lambda: None, EquivocatorAdversary):
            ref = _observe(
                "reference", seed, adversary_factory, share_coin=True
            )
            blk = _observe("bulk", seed, adversary_factory, share_coin=True)
            assert ref == blk

    @pytest.mark.parametrize("seed", range(3))
    def test_gvss_coin_falls_back_per_node_identical(self, seed):
        """A message-passing coin has no SoA mapping: fast-path fallback."""
        ref = _observe("reference", seed, lambda: None, coin="gvss")
        assert ref == _observe("bulk", seed, lambda: None, coin="gvss")

    @pytest.mark.parametrize("link,params", LINKS)
    def test_link_models_identical(self, link, params):
        """Partition runs stay vectorized (pure schedule); delay and lossy
        runs take the per-envelope fallback (stateful keyed draws)."""
        for adversary_factory in (lambda: None, EquivocatorAdversary,
                                  SplitWorldAdversary):
            for seed in range(3):
                ref = _observe(
                    "reference", seed, adversary_factory, beats=30,
                    link=link, link_params=params,
                )
                blk = _observe(
                    "bulk", seed, adversary_factory, beats=30,
                    link=link, link_params=params,
                )
                assert ref == blk

    def test_sync_trees_materializes_reference_state(self):
        """flush_full writes back the *entire* tower state, not just the
        clock observable monitors read."""
        def run(engine):
            sim = Simulation(
                4, 1,
                lambda i: SSByzClockSync(6, _coin_factory),
                adversary=EquivocatorAdversary(), seed=5, engine=engine,
            )
            sim.scramble()
            sim.run(25)
            return sim

        ref = run("reference")
        blk = run("bulk")
        assert blk.engine.vectorized
        blk.engine.sync_trees()
        for node_id, node in ref.nodes.items():
            mirror = blk.nodes[node_id].root
            root = node.root
            assert mirror.full_clock == root.full_clock
            assert mirror.save == root.save
            assert mirror._phase == root._phase
            assert mirror._previous == root._previous
            assert mirror.a.clock == root.a.clock
            assert mirror.a._run_a2 == root.a._run_a2
            assert mirror.a.a1.clock == root.a.a1.clock
            assert mirror.a.a2.clock == root.a.a2.clock


class TestAllProtocolsDifferential:
    """Every registered protocol, vectorized or fallback, stays identical."""

    @staticmethod
    def _protocol_factory(name):
        return resolve_protocol(name).factory(
            4, 1, 6, coin_factory=_coin_factory
        )

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_fault_free_seeds_identical(self, name):
        factory = self._protocol_factory(name)
        for seed in SEEDS:
            ref = _observe("reference", seed, lambda: None, factory=factory)
            blk = _observe("bulk", seed, lambda: None, factory=factory)
            assert ref == blk

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_adversarial_seeds_identical(self, name):
        factory = self._protocol_factory(name)
        for seed in range(5):
            ref = _observe(
                "reference", seed, EquivocatorAdversary, factory=factory
            )
            blk = _observe(
                "bulk", seed, EquivocatorAdversary, factory=factory
            )
            assert ref == blk

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("link,params", LINKS[:3])
    def test_link_models_identical(self, name, link, params):
        factory = self._protocol_factory(name)
        for seed in range(3):
            ref = _observe(
                "reference", seed, lambda: None, beats=30, factory=factory,
                link=link, link_params=params,
            )
            blk = _observe(
                "bulk", seed, lambda: None, beats=30, factory=factory,
                link=link, link_params=params,
            )
            assert ref == blk

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_catalog_bulk_execution_matches_engine(self, name):
        """The catalog's vectorized/per-node row is what the engine does
        (oracle coin, perfect links — the catalog's reference regime)."""
        protocol = resolve_protocol(name)
        sim = Simulation(
            4, 1, protocol.factory(4, 1, 6, coin_factory=_coin_factory),
            engine="bulk",
        )
        assert sim.engine.vectorized == (
            protocol.bulk_execution == "vectorized"
        )


class TestEngineModeSelection:
    def test_vectorized_under_perfect_and_partition_only(self):
        factory = lambda i: SSByzClockSync(6, _coin_factory)
        churn = ((5, "crash", (0,)), (9, "recover", (0,)))
        for link, params, churn_spec, expect in (
            ("perfect", None, None, True),
            ("partition", {"split": 1, "heal": 5}, None, True),
            ("delay", {"max_delay": 2}, None, False),
            ("lossy", {"loss": 0.3}, None, False),
            ("mobility", None, None, False),
            # Membership churn forces the per-node fallback even on the
            # otherwise-vectorizable links.
            ("perfect", None, churn, False),
            ("partition", {"split": 1, "heal": 5}, churn, False),
        ):
            link_model = make_link(link, params) if params else link
            sim = Simulation(
                4, 1, factory, engine="bulk", link=link_model,
                churn=churn_spec,
            )
            assert sim.engine.vectorized is expect, (link, params, churn_spec)

    def test_gvss_coin_disables_vectorization(self):
        sim = Simulation(
            4, 1,
            lambda i: SSByzClockSync(6, lambda: FeldmanMicaliCoin(4, 1)),
            engine="bulk",
        )
        assert not sim.engine.vectorized

    def test_unregistered_root_type_builds_no_program(self):
        from repro.baselines.turpin_coan import (
            TurpinCoanClock as DeterministicClockSync,
        )

        sim = Simulation(
            4, 1, lambda i: DeterministicClockSync(4, 1, 6), engine="bulk"
        )
        assert sim.engine.vectorized is False
        assert build_bulk_program(sim) is None
        assert not has_bulk_program(DeterministicClockSync)
        assert has_bulk_program(SSByzClockSync)

    def test_registry_and_single_use(self):
        assert "bulk" in ENGINES
        engine = resolve_engine("bulk")
        assert isinstance(engine, BulkEngine)
        assert engine.description
        factory = lambda i: SSByzClockSync(6, _coin_factory)
        instance = BulkEngine()
        Simulation(4, 1, factory, engine=instance)
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Simulation(4, 1, factory, engine=instance)


class TestCampaignDispatch:
    def test_run_trial_identical_across_engines(self):
        def config(engine):
            return TrialConfig(
                n=4, f=1, k=6,
                protocol_factory=lambda i: SSByzClockSync(6, _coin_factory),
                max_beats=120,
                engine=engine,
            )

        for seed in range(5):
            assert run_trial(config("reference"), seed) == run_trial(
                config("bulk"), seed
            )

    def test_campaign_engine_axis_identical(self):
        def sweep(engine):
            specs = [
                ScenarioSpec(n=4, f=1, k=6, engine=engine, max_beats=80),
                ScenarioSpec(
                    n=4, f=1, k=6, engine=engine, adversary="equivocator",
                    max_beats=80,
                ),
                ScenarioSpec(
                    n=4, f=1, k=6, engine=engine, protocol="dolev-welch",
                    max_beats=80,
                ),
            ]
            # SweepResult embeds the TrialConfig (whose engine field is
            # the axis under test); compare the per-seed trial outcomes.
            return [
                entry.sweep.results
                for entry in iter_campaign(specs, range(3), workers=1)
            ]

        assert sweep("fast") == sweep("bulk")
