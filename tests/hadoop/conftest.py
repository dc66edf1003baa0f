"""Fixtures shared by the mini-Hadoop tests."""

import pytest

from repro.core import sorter
from repro.hadoop import tasks


@pytest.fixture()
def map_spills(monkeypatch):
    """The stem of every file a map writes to local disk — each spill of
    its stores and each partition's final segment — in call order."""
    stems = []

    def spy(batch, serializer, directory, stem, _real=sorter.spill_batch):
        if stem.startswith("m"):  # a reduce's store spills under "r{id}"
            stems.append(stem)
        return _real(batch, serializer, directory, stem)

    monkeypatch.setattr(sorter, "spill_batch", spy)
    monkeypatch.setattr(tasks, "spill_batch", spy)
    return stems
