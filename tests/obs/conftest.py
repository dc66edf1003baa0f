import importlib

import pytest

_mpidrun_mod = importlib.import_module("repro.core.mpidrun")


@pytest.fixture(params=["threads", "processes"])
def launcher(request):
    return request.param


@pytest.fixture
def captured_hub(monkeypatch):
    """Capture the driver-side hub that mpidrun wires up internally."""
    captured = {}
    orig = _mpidrun_mod._TelemetrySession.attach

    def attach(self, runtime):
        captured["hub"] = self.hub
        orig(self, runtime)

    monkeypatch.setattr(_mpidrun_mod._TelemetrySession, "attach", attach)
    return captured
