"""The store bundle codec: round trips, damage, refusal, older layout."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.prefilter import descriptor_vector
from repro.runtime import faults
from repro.runtime.artifacts import ArtifactStore
from repro.runtime.cache import NpzDirectory, ScoreCache
from repro.runtime.errors import CacheError
from repro.runtime.telemetry import enable_telemetry, get_recorder, set_recorder
from repro.sensors.codec import impressions_to_arrays, quality_to_arrays
from repro.service.gallery import GalleryIndex

FINGER = "right_index"


@pytest.fixture()
def recorder():
    previous = get_recorder()
    live = enable_telemetry()
    yield live
    set_recorder(previous)


def _legacy_store(path, arrays, meta=None):
    """Write an entry the way the older ``savez_compressed`` layout did."""
    payload = dict(arrays)
    if meta is not None:
        payload["__meta__"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **payload)


def _assert_same_arrays(loaded, expected):
    assert list(loaded) == list(expected)
    for name, value in expected.items():
        value = np.asarray(value)
        assert loaded[name].dtype == value.dtype, name
        assert loaded[name].shape == value.shape, name
        np.testing.assert_array_equal(loaded[name], value)


_dtypes = st.sampled_from(
    [np.dtype("<f8"), np.dtype("<i8"), np.dtype("u1"), np.dtype(bool), np.dtype("<U5")]
)
_arrays = _dtypes.flatmap(
    lambda dtype: hnp.arrays(
        dtype,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        elements={"allow_nan": False} if dtype.kind == "f" else None,
    )
)
_metas = st.none() | st.dictionaries(
    st.text(max_size=6),
    st.integers(-(2**40), 2**40) | st.text(max_size=8) | st.booleans(),
    max_size=4,
)


class TestRoundTrip:
    @given(
        arrays=st.dictionaries(
            st.from_regex(r"[a-z_]{1,8}", fullmatch=True), _arrays, max_size=4
        ),
        meta=_metas,
        transpose=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_roundtrip(self, tmp_path_factory, arrays, meta, transpose):
        if transpose:  # non-contiguous inputs
            arrays = {name: np.flip(value.T) for name, value in arrays.items()}
        store = NpzDirectory(tmp_path_factory.mktemp("rt"))
        store.store("k", arrays, meta=meta)
        loaded, loaded_meta = store.load_entry("k")
        _assert_same_arrays(loaded, arrays)
        assert loaded_meta == meta
        assert store.load_meta("k") == meta
        for value in loaded.values():
            assert value.flags.writeable and value.flags.owndata

    def test_zero_dim_and_empty(self, tmp_path):
        store = NpzDirectory(tmp_path)
        arrays = {
            "scalar": np.array(3.5),
            "empty": np.empty((0, 7), dtype=np.int64),
            "strings": np.array(["D0", "D4"], dtype="<U2"),
        }
        store.store("k", arrays)
        _assert_same_arrays(store.load("k"), arrays)
        assert store.load_entry("k")[1] is None


class TestDamage:
    def _stored(self, tmp_path):
        store = NpzDirectory(tmp_path, metric_prefix="bundle")
        store.store(
            "k",
            {"a": np.arange(6.0), "s": np.array(["x", "yz"])},
            meta={"n": 6},
        )
        return store, (tmp_path / "k.npz").read_bytes()

    def _assert_miss(self, store, tmp_path, data, recorder, seen):
        (tmp_path / "k.npz").write_bytes(data)
        assert store.load_entry("k") is None
        assert not (tmp_path / "k.npz").exists()
        assert recorder.metrics.counter_value("bundle.corrupt") == seen + 1

    def test_every_truncation_is_a_miss(self, tmp_path, recorder):
        store, data = self._stored(tmp_path)
        for seen, cut in enumerate(range(len(data))):
            self._assert_miss(store, tmp_path, data[:cut], recorder, seen)
        assert recorder.metrics.counter_value("bundle.hit") == 0

    def test_every_single_byte_flip_is_a_miss(self, tmp_path, recorder):
        store, data = self._stored(tmp_path)
        seen = 0
        for position in range(len(data)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(data)
                damaged[position] ^= mask
                self._assert_miss(store, tmp_path, bytes(damaged), recorder, seen)
                seen += 1
        assert recorder.metrics.counter_value("bundle.hit") == 0

    def test_corrupt_fault_reads_as_a_miss(
        self, tmp_path, recorder, monkeypatch
    ):
        monkeypatch.setenv(faults.ENV_SPEC, "corrupt@k:1")
        monkeypatch.setenv(faults.ENV_LEDGER, str(tmp_path / "ledger"))
        store = NpzDirectory(tmp_path / "store", metric_prefix="bundle")
        store.store("k", {"a": np.arange(100.0)})
        assert store.load("k") is None
        assert recorder.metrics.counter_value("bundle.corrupt") == 1
        store.store("k", {"a": np.arange(100.0)})  # the fault fires once
        np.testing.assert_array_equal(store.load("k")["a"], np.arange(100.0))


class TestRefusal:
    def test_object_dtype_refused(self, tmp_path):
        store = NpzDirectory(tmp_path)
        with pytest.raises(CacheError):
            store.store("k", {"a": np.array([{"x": 1}, None], dtype=object)})
        assert not (tmp_path / "k.npz").exists()

    def test_structured_dtype_refused(self, tmp_path):
        store = NpzDirectory(tmp_path)
        with pytest.raises(CacheError):
            store.store("k", {"a": np.zeros(2, dtype=[("x", "<f8")])})


class TestOlderLayout:
    """Entries in the ``savez_compressed`` zip layout still load."""

    def test_gallery_record(self, tmp_path, tiny_collection):
        root = tmp_path / "gallery"
        probe = tiny_collection.get(1, FINGER, "D0", 1).template
        with GalleryIndex(root) as gallery:
            for sid in range(3):
                gallery.enroll(
                    f"subject-{sid}",
                    tiny_collection.get(sid, FINGER, "D0", 0).template,
                    device="D0",
                )
            before = gallery.records()
            shortlist = gallery.prefilter(probe, device="D0", k=2)
        shard = NpzDirectory(root / "D0")
        for identity in shard.keys():
            arrays, meta = shard.load_entry(identity)
            _legacy_store(shard.path_for(identity), arrays, meta)
        assert (root / "D0" / "subject-0.npz").read_bytes()[:4] == b"PK\x03\x04"

        reborn = GalleryIndex(root)
        assert reborn.corrupt_dropped == 0
        assert reborn.records() == before
        for (device, identity), record in before.items():
            np.testing.assert_array_equal(
                reborn.descriptor(identity, device=device),
                gallery.descriptor(identity, device=device),
            )
            np.testing.assert_array_equal(
                reborn.descriptor(identity, device=device),
                descriptor_vector(record.template),
            )
        assert reborn.prefilter(probe, device="D0", k=2) == shortlist

    def test_score_cache_shard(self, tmp_path):
        arrays = {
            "scores": np.linspace(0.0, 1.0, 9),
            "subject_gallery": np.arange(9, dtype=np.int64),
            "subject_probe": np.arange(9, dtype=np.int64)[::-1].copy(),
            "device_gallery": np.array(["D0"] * 9, dtype="<U2"),
            "device_probe": np.array(["D1"] * 9, dtype="<U2"),
            "nfiq_gallery": np.full(9, 2, dtype=np.int64),
            "nfiq_probe": np.full(9, 3, dtype=np.int64),
        }
        meta = {"config": {"n_subjects": 9}}
        _legacy_store(tmp_path / "DMG.npz", arrays, meta)
        cache = ScoreCache(tmp_path)
        assert cache.load_meta("DMG") == meta
        loaded, loaded_meta = cache.load_entry("DMG")
        _assert_same_arrays(loaded, arrays)
        assert loaded_meta == meta

    def test_artifact(self, tmp_path, tiny_collection):
        impressions = [
            tiny_collection.get(sid, FINGER, device, 0)
            for sid in range(2) for device in ("D0", "D1")
        ]
        store = ArtifactStore(tmp_path)
        for tier, arrays in (
            ("impressions", impressions_to_arrays(impressions)),
            ("quality", quality_to_arrays(impressions)),
        ):
            _legacy_store(tmp_path / tier / "abc.npz", arrays, {"subject": 0})
            assert store.has(tier, "abc")
            _assert_same_arrays(store.load(tier, "abc"), arrays)
            assert store.load_meta(tier, "abc") == {"subject": 0}
            # The next store of the key rewrites it in the current layout.
            store.store(tier, "abc", arrays, meta={"subject": 0})
            assert (tmp_path / tier / "abc.npz").read_bytes()[:4] != b"PK\x03\x04"
            _assert_same_arrays(store.load(tier, "abc"), arrays)
