"""On-disk score cache behaviour."""

import numpy as np
import pytest

from repro.runtime.cache import ScoreCache
from repro.runtime.errors import CacheError
from repro.runtime.telemetry import enable_telemetry, get_recorder, set_recorder


@pytest.fixture()
def recorder():
    """A live recorder for the test, restored to the previous one after."""
    previous = get_recorder()
    live = enable_telemetry()
    yield live
    set_recorder(previous)


@pytest.fixture()
def cache(tmp_path):
    return ScoreCache(tmp_path / "cache")


class TestRoundTrip:
    def test_store_and_load(self, cache):
        arrays = {"scores": np.arange(5.0), "ids": np.array([1, 2, 3, 4, 5])}
        cache.store("run1", arrays)
        loaded = cache.load("run1")
        assert set(loaded) == {"scores", "ids"}
        np.testing.assert_array_equal(loaded["scores"], arrays["scores"])

    def test_meta_roundtrip(self, cache):
        cache.store("k", {"a": np.zeros(2)}, meta={"n": 10, "label": "x"})
        assert cache.load_meta("k") == {"n": 10, "label": "x"}

    def test_meta_not_in_arrays(self, cache):
        cache.store("k", {"a": np.zeros(2)}, meta={"n": 10})
        assert "__meta__" not in cache.load("k")

    def test_miss_returns_none(self, cache):
        assert cache.load("absent") is None
        assert cache.load_meta("absent") is None
        assert cache.load_entry("absent") is None

    def test_load_entry_returns_arrays_and_meta(self, cache):
        cache.store("k", {"a": np.arange(3.0)}, meta={"n": 3})
        arrays, meta = cache.load_entry("k")
        assert set(arrays) == {"a"}
        np.testing.assert_array_equal(arrays["a"], np.arange(3.0))
        assert meta == {"n": 3}
        cache.store("bare", {"a": np.zeros(1)})
        assert cache.load_entry("bare")[1] is None


class TestDisabled:
    def test_none_directory_disables(self):
        cache = ScoreCache(None)
        assert not cache.enabled
        cache.store("k", {"a": np.zeros(1)})  # silently a no-op
        assert cache.load("k") is None
        assert cache.invalidate("k") is False
        assert cache.clear() == 0


class TestRobustness:
    def test_corrupt_entry_is_a_miss(self, cache, tmp_path):
        cache.store("bad", {"a": np.zeros(3)})
        path = tmp_path / "cache" / "bad.npz"
        path.write_bytes(b"not a zipfile at all")
        assert cache.load("bad") is None
        # And the corrupt file was removed so the next store is clean.
        assert not path.exists()

    def test_bad_zipfile_entry_is_a_miss(self, cache, tmp_path):
        # Regression: a file with a valid zip magic but garbage payload
        # raises zipfile.BadZipFile from np.load, which load() must treat
        # as a corrupt entry, not propagate.
        cache.store("bad", {"a": np.zeros(3)})
        path = tmp_path / "cache" / "bad.npz"
        path.write_bytes(b"PK\x03\x04" + b"\x00" * 64)
        assert cache.load("bad") is None
        assert not path.exists()

    def test_bad_zipfile_meta_is_a_miss(self, cache, tmp_path):
        cache.store("bad", {"a": np.zeros(3)}, meta={"n": 3})
        (tmp_path / "cache" / "bad.npz").write_bytes(b"PK\x03\x04" + b"\xff" * 32)
        assert cache.load_meta("bad") is None

    def test_corrupt_entry_counts_and_recovers(self, cache, tmp_path, recorder):
        cache.store("bad", {"a": np.zeros(3)})
        path = tmp_path / "cache" / "bad.npz"
        path.write_bytes(b"PK\x03\x04" + b"\x00" * 64)
        assert cache.load("bad") is None
        assert recorder.metrics.counter_value("cache.corrupt") == 1
        assert recorder.metrics.counter_value("cache.miss") == 1
        # The slot is clean again: a fresh store round-trips.
        cache.store("bad", {"a": np.ones(2)})
        np.testing.assert_array_equal(cache.load("bad")["a"], np.ones(2))
        assert recorder.metrics.counter_value("cache.hit") == 1

    def test_load_entry_counts_like_load(self, cache, tmp_path, recorder):
        cache.store("k", {"a": np.zeros(1)}, meta={"n": 1})
        cache.store("bad", {"a": np.zeros(1)})
        (tmp_path / "cache" / "bad.npz").write_bytes(b"PK\x03\x04" + b"\x00" * 64)
        assert cache.load_entry("k") is not None
        assert cache.load_entry("bad") is None
        assert cache.load_entry("absent") is None
        assert not (tmp_path / "cache" / "bad.npz").exists()
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["cache.hit"] == 1
        assert counters["cache.corrupt"] == 1
        assert counters["cache.miss"] == 2
        assert counters["cache.bytes_read"] == (tmp_path / "cache" / "k.npz").stat().st_size

    def test_hit_miss_store_counters(self, cache, recorder):
        assert cache.load("absent") is None
        cache.store("k", {"a": np.zeros(1)})
        assert cache.load("k") is not None
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["cache.miss"] == 1
        assert counters["cache.store"] >= 1
        assert counters["cache.hit"] == 1

    def test_bad_key_rejected(self, cache):
        with pytest.raises(CacheError):
            cache.store("../escape", {"a": np.zeros(1)})
        with pytest.raises(CacheError):
            cache.load("a/b")

    def test_invalidate(self, cache):
        cache.store("k", {"a": np.zeros(1)})
        assert cache.invalidate("k") is True
        assert cache.load("k") is None
        assert cache.invalidate("k") is False

    def test_clear(self, cache):
        cache.store("k1", {"a": np.zeros(1)})
        cache.store("k2", {"a": np.zeros(1)})
        assert cache.clear() == 2
        assert cache.load("k1") is None

    def test_overwrite(self, cache):
        cache.store("k", {"a": np.zeros(2)})
        cache.store("k", {"a": np.ones(3)})
        np.testing.assert_array_equal(cache.load("k")["a"], np.ones(3))
