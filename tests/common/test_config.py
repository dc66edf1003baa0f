"""Tests for the layered Configuration object."""

import pytest

from repro.common import Configuration
from repro.common.errors import ConfigurationError


class TestBasics:
    def test_get_set(self):
        conf = Configuration({"a": 1})
        assert conf["a"] == 1
        conf.set("b", 2)
        assert conf["b"] == 2

    def test_get_with_default(self):
        conf = Configuration()
        assert conf.get("missing", 42) == 42
        assert conf.get("missing") is None

    def test_mapping_protocol(self):
        conf = Configuration({"x": 1, "y": 2})
        assert set(conf) == {"x", "y"}
        assert len(conf) == 2
        assert "x" in conf
        assert dict(conf) == {"x": 1, "y": 2}

    def test_update_chains(self):
        conf = Configuration().update({"a": 1}).set("b", 2)
        assert conf.flat() == {"a": 1, "b": 2}


class TestLayering:
    def test_child_overrides_parent(self):
        base = Configuration({"mode": "common", "sort": True})
        child = base.child({"sort": False})
        assert child["sort"] is False
        assert child["mode"] == "common"

    def test_writes_stay_in_child(self):
        base = Configuration({"k": 1})
        child = base.child()
        child.set("k", 2)
        assert base["k"] == 1
        assert child["k"] == 2

    def test_iteration_dedups_layers(self):
        base = Configuration({"a": 1, "b": 2})
        child = base.child({"b": 3})
        assert sorted(child) == ["a", "b"]
        assert child.flat() == {"a": 1, "b": 3}

    def test_three_layers(self):
        grandparent = Configuration({"a": "g"})
        parent = grandparent.child({"b": "p"})
        child = parent.child({"c": "c"})
        assert child["a"] == "g" and child["b"] == "p" and child["c"] == "c"


class TestTypedGetters:
    def test_int_coercion(self):
        assert Configuration({"n": "5"}).get_int("n") == 5

    def test_float(self):
        assert Configuration({"f": "2.5"}).get_float("f") == 2.5

    @pytest.mark.parametrize("raw", [True, "true", "YES", "on", "1"])
    def test_bool_truthy(self, raw):
        assert Configuration({"b": raw}).get_bool("b") is True

    @pytest.mark.parametrize("raw", [False, "false", "No", "off", "0"])
    def test_bool_falsy(self, raw):
        assert Configuration({"b": raw}).get_bool("b") is False

    def test_bool_garbage_raises(self):
        with pytest.raises(ConfigurationError):
            Configuration({"b": "maybe"}).get_bool("b")

    def test_bytes_suffix(self):
        assert Configuration({"s": "64MB"}).get_bytes("s") == 64 * 2**20

    def test_missing_without_default_raises(self):
        with pytest.raises(ConfigurationError):
            Configuration().get_int("n")

    def test_missing_with_default(self):
        assert Configuration().get_int("n", 7) == 7
        assert Configuration().get_bytes("s", "1KB") == 1024
