"""Tests for the multi-process cluster orchestrator.

Spec validation and file loading are cheap and covered densely; actual
cluster launches spawn real OS processes over real TCP loopback sockets,
so only two end-to-end runs exist — one pinning the cluster's trajectory
to the single-process runtime (and through it, to the lock-step
simulator), one exercising failure surfacing.
"""

from __future__ import annotations

import asyncio
import textwrap

import pytest

from repro.errors import ConfigurationError, TransportError
from repro.net.trace import records_to_jsonl
from repro.runtime import ClusterSpec, load_specs, run_cluster, run_runtime
from repro.runtime.orchestrator import _partition, _worker_async


def _spec(**overrides) -> ClusterSpec:
    base = dict(name="t", n=4, f=1, k=6, beats=8, processes=2)
    base.update(overrides)
    return ClusterSpec(**base)


class TestClusterSpec:
    def test_valid_spec_passes(self):
        _spec().validate()

    @pytest.mark.parametrize("overrides,match", [
        ({"name": ""}, "name"),
        ({"n": 3, "f": 1}, "f < n/3"),
        ({"beats": 0}, "beat"),
        ({"processes": 0}, "processes"),
        ({"processes": 5}, "processes"),
        ({"protocol": "paxos"}, "protocol"),
        ({"adversary": "gremlin"}, "adversary"),
        ({"coin": "quantum"}, "coin"),
        ({"codec": "morse"}, "codec"),
    ])
    def test_inconsistent_specs_rejected(self, overrides, match):
        with pytest.raises(ConfigurationError, match=match):
            _spec(**overrides).validate()

    def test_specs_are_frozen(self):
        with pytest.raises(AttributeError):
            _spec().n = 7  # type: ignore[misc]


class TestPartition:
    @pytest.mark.parametrize("n,processes", [
        (4, 1), (4, 2), (4, 4), (7, 3), (16, 5),
    ])
    def test_contiguous_cover(self, n, processes):
        blocks = _partition(n, processes)
        assert len(blocks) == processes
        assert all(blocks)  # never an idle worker
        flat = [i for block in blocks for i in block]
        assert flat == list(range(n))
        # Balanced: block sizes differ by at most one.
        sizes = {len(block) for block in blocks}
        assert max(sizes) - min(sizes) <= 1


class TestLoadSpecs:
    def _write(self, tmp_path, body: str):
        path = tmp_path / "spec.py"
        path.write_text(textwrap.dedent(body), encoding="utf-8")
        return str(path)

    def test_loads_the_shipped_example(self):
        specs = load_specs("examples/cluster_smoke.py")
        assert [s.name for s in specs] == ["smoke-n4"]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_specs(str(tmp_path / "nope.py"))

    def test_import_error_rejected(self, tmp_path):
        path = self._write(tmp_path, "import no_such_module_anywhere\n")
        with pytest.raises(ConfigurationError, match="failed to import"):
            load_specs(path)

    def test_missing_experiments_rejected(self, tmp_path):
        path = self._write(tmp_path, "x = 1\n")
        with pytest.raises(ConfigurationError, match="experiments"):
            load_specs(path)

    def test_wrong_element_type_rejected(self, tmp_path):
        path = self._write(tmp_path, "experiments = [{'name': 'a'}]\n")
        with pytest.raises(ConfigurationError, match="ClusterSpec"):
            load_specs(path)

    def test_empty_list_rejected(self, tmp_path):
        path = self._write(tmp_path, "experiments = []\n")
        with pytest.raises(ConfigurationError, match="non-empty"):
            load_specs(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = self._write(tmp_path, """\
            from repro.runtime import ClusterSpec
            experiments = [
                ClusterSpec(name="a", n=4, f=1),
                ClusterSpec(name="a", n=7, f=2),
            ]
        """)
        with pytest.raises(ConfigurationError, match="duplicate"):
            load_specs(path)

    def test_invalid_member_spec_rejected(self, tmp_path):
        path = self._write(tmp_path, """\
            from repro.runtime import ClusterSpec
            experiments = [ClusterSpec(name="bad", n=3, f=1)]
        """)
        with pytest.raises(ConfigurationError, match="f < n/3"):
            load_specs(path)

    def test_good_file_loads_in_order(self, tmp_path):
        path = self._write(tmp_path, """\
            from repro.runtime import ClusterSpec
            experiments = [
                ClusterSpec(name="a", n=4, f=1, codec="binary"),
                ClusterSpec(name="b", n=7, f=2, processes=3),
            ]
        """)
        specs = load_specs(path)
        assert [s.name for s in specs] == ["a", "b"]
        assert specs[0].codec == "binary"
        assert specs[1].processes == 3


class TestRunCluster:
    def test_two_process_cluster_matches_single_process_run(self):
        """The flagship cluster claim: splitting the same seeded system
        across OS processes moves bytes, not the trajectory."""
        spec = ClusterSpec(
            name="ident", n=4, f=1, k=6, beats=10, processes=2,
            codec="binary", seed=0,
        )
        result = run_cluster(spec)
        assert result.beats_run == 10
        assert result.barrier_timeouts == 0
        assert result.malformed_frames == 0
        assert all(len(row) == 4 for row in result.history)

        # The exact factory the cluster workers build from the spec names.
        from repro import coin_by_name
        from repro.core.protocol import resolve_protocol

        factory = resolve_protocol(spec.protocol).factory(
            spec.n, spec.f, spec.k,
            coin_factory=coin_by_name(spec.coin, spec.n, spec.f),
        )
        single = run_runtime(
            4, 1, factory,
            seed=0, beats=10, transport="local", codec="binary", k=6,
        )
        assert result.to_jsonl() == single.to_jsonl()
        assert records_to_jsonl(result.records) == result.to_jsonl()

        # The merged registry carries every node's frames, from both
        # workers, under a per-node label, and the summed counters.
        metrics = result.metrics
        frames = metrics.counter("runtime_frames_sent_total")
        assert {
            labels["node"]: value for labels, value in frames.samples()
        } == {str(i): count for i, count in result.frames_by_node.items()}
        assert set(result.frames_by_node) == {0, 1, 2, 3}
        assert sum(result.frames_by_node.values()) == result.frames_sent
        assert result.frames_sent == single.frames_sent
        assert (
            metrics.counter("runtime_messages_sent_total").value()
            == result.messages_sent
            == single.messages_sent
        )
        for name in ("late_messages", "premature_messages",
                     "barrier_timeouts"):
            assert (
                metrics.counter(f"runtime_{name}_total").value()
                == getattr(result, name)
            )
        assert metrics.counter("runtime_beats_total").value() == 10

    def test_worker_failure_surfaces_as_transport_error(self):
        """A spec that validates fine at the parent but fails inside the
        worker (here: a listener host nobody can bind) kills the whole
        cluster and names the failing worker."""
        spec = _spec(beats=2, host="203.0.113.1")  # TEST-NET-3: unbindable
        with pytest.raises(TransportError, match="worker"):
            run_cluster(spec)


class TestWorkerFaultySet:
    """Workers rebuild the faulty set themselves; they must reject an
    illegal one exactly as ``run_runtime`` does, before any socket opens."""

    @pytest.mark.parametrize(
        "faulty, match",
        [({2, 3}, "corrupted 2 nodes, but f=1"), ({9}, "unknown node ids")],
    )
    def test_illegal_faulty_set_rejected(self, monkeypatch, faulty, match):
        from repro.adversary.base import Adversary
        from repro.analysis import campaign

        class Overreach(Adversary):
            def select_faulty(self, n, f, rng):
                return frozenset(faulty)

        monkeypatch.setitem(campaign.ADVERSARY_REGISTRY, "overreach", Overreach)
        spec = _spec(adversary="overreach")
        with pytest.raises(ConfigurationError, match=match):
            asyncio.run(_worker_async(spec, 0, (0, 1), conn=None))
        with pytest.raises(ConfigurationError, match=match):
            run_runtime(4, 1, lambda i: None, adversary=Overreach(), beats=1)
