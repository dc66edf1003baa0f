import importlib

import pytest

_mpidrun_mod = importlib.import_module("repro.core.mpidrun")


@pytest.fixture(params=["threads", "processes"])
def launcher(request):
    return request.param


@pytest.fixture
def captured_hub(monkeypatch):
    """Capture the driver-side hub that mpidrun wires up internally, and
    under ``"records"`` every record it files, in filing order (the hub
    keeps only the newest of each series)."""
    captured = {"records": []}
    orig = _mpidrun_mod._TelemetrySession.__init__

    def init(self, job, conf):
        orig(self, job, conf)
        hub = captured["hub"] = self.hub
        ingest = hub.ingest

        def spy(record):
            captured["records"].append(record)
            ingest(record)

        hub.ingest = spy

    monkeypatch.setattr(_mpidrun_mod._TelemetrySession, "__init__", init)
    return captured
