"""Tests for the mini-S4 streaming substrate."""

import threading

import pytest

from repro.s4 import Event, ProcessingElement, S4App


class CollectPE(ProcessingElement):
    """Records every event it sees (per key instance)."""

    seen: dict = {}
    lock = threading.Lock()

    def on_event(self, event):
        with CollectPE.lock:
            CollectPE.seen.setdefault(self.key, []).append(event.value)


@pytest.fixture(autouse=True)
def _reset_collect_pe():
    CollectPE.seen = {}
    yield


class TestRouting:
    def test_keyed_instances(self):
        app = S4App(num_nodes=2)
        app.subscribe("s", CollectPE)
        for i in range(10):
            app.inject("s", f"k{i % 3}", i)
        app.shutdown()
        assert set(CollectPE.seen) == {"k0", "k1", "k2"}
        assert CollectPE.seen["k0"] == [0, 3, 6, 9]

    def test_same_key_same_instance(self):
        app = S4App(num_nodes=4)
        app.subscribe("s", CollectPE)
        for _ in range(20):
            app.inject("s", "hot", 1)
        app.shutdown()
        instances = [
            pe for node in app.nodes for pe in node.instances.values()
            if pe.key == "hot"
        ]
        assert len(instances) == 1
        assert instances[0].events_seen == 20

    def test_unsubscribed_stream_dropped(self):
        app = S4App(num_nodes=1)
        app.subscribe("s", CollectPE)
        app.inject("other", "k", 1)
        app.inject("s", "k", 2)
        app.shutdown()
        assert CollectPE.seen == {"k": [2]}
        assert app.events_injected == 1  # the drop is not counted as injected

    def test_per_key_order_preserved(self):
        app = S4App(num_nodes=3)
        app.subscribe("s", CollectPE)
        for i in range(100):
            app.inject("s", "ordered", i)
        app.shutdown()
        assert CollectPE.seen["ordered"] == list(range(100))


class TestCascading:
    def test_pe_emits_downstream(self):
        class ForwarderPE(ProcessingElement):
            def on_event(self, event):
                self.emit("out", "sink", event.value * 2)

        app = S4App(num_nodes=2)
        app.subscribe("in", ForwarderPE)
        app.subscribe("out", CollectPE)
        for i in range(5):
            app.inject("in", f"k{i}", i)
        app.shutdown()
        assert sorted(CollectPE.seen["sink"]) == [0, 2, 4, 6, 8]

    def test_shutdown_waits_for_cascade(self):
        """Quiescence: no downstream event may be lost at shutdown."""

        class SlowForwarder(ProcessingElement):
            def on_event(self, event):
                import time

                time.sleep(0.002)
                self.emit("out", "sink", event.value)

        app = S4App(num_nodes=2)
        app.subscribe("in", SlowForwarder)
        app.subscribe("out", CollectPE)
        for i in range(30):
            app.inject("in", f"k{i % 5}", i)
        app.shutdown()
        assert len(CollectPE.seen["sink"]) == 30

    def test_on_shutdown_called(self):
        flags = []

        class FinalPE(ProcessingElement):
            def on_event(self, event):
                pass

            def on_shutdown(self):
                flags.append(self.key)

        app = S4App(num_nodes=2)
        app.subscribe("s", FinalPE)
        app.inject("s", "a", 1)
        app.inject("s", "b", 1)
        app.shutdown()
        assert sorted(flags) == ["a", "b"]


class TestAccounting:
    def test_total_processed(self):
        app = S4App(num_nodes=2)
        app.subscribe("s", CollectPE)
        for i in range(25):
            app.inject("s", i, i)
        app.shutdown()
        assert sorted(v for values in CollectPE.seen.values() for v in values) == list(range(25))

    def test_latency_observer(self):
        latencies = []
        app = S4App(num_nodes=1)
        app.on_latency(latencies.append)
        app.subscribe("s", CollectPE)
        for i in range(10):
            app.inject("s", "k", i)
        app.shutdown()
        assert len(latencies) == 10
        assert all(lat >= 0 for lat in latencies)

    def test_unattached_pe_emit_raises(self):
        pe = CollectPE("k")
        with pytest.raises(RuntimeError):
            pe.emit("s", "k", 1)

    def test_base_on_event_abstract(self):
        with pytest.raises(NotImplementedError):
            ProcessingElement("k").on_event(Event("s", "k", 1))
