"""INCITS 378 codec: round trips and strict decoding."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.incits378 import RecordMetadata, decode, encode
from repro.matcher.types import KIND_BIFURCATION, KIND_ENDING, Minutia, Template
from repro.runtime.errors import TemplateFormatError

minutia_strategy = st.builds(
    Minutia,
    x=st.integers(min_value=0, max_value=2**14 - 1).map(float),
    y=st.integers(min_value=0, max_value=2**14 - 1).map(float),
    angle=st.integers(min_value=0, max_value=255).map(
        lambda u: u * (2 * np.pi / 256)
    ),
    kind=st.sampled_from([KIND_ENDING, KIND_BIFURCATION]),
    quality=st.integers(min_value=0, max_value=100),
)

template_strategy = st.lists(minutia_strategy, min_size=0, max_size=40).map(
    lambda ms: Template(
        minutiae=tuple(ms), width_px=800, height_px=750, resolution_dpi=500
    )
)


class TestRoundTrip:
    @given(template_strategy)
    @settings(max_examples=60, deadline=None)
    def test_property_roundtrip(self, template):
        decoded, __ = decode(encode(template))
        assert len(decoded) == len(template)
        assert decoded.width_px == template.width_px
        assert decoded.resolution_dpi == template.resolution_dpi
        for original, restored in zip(template.minutiae, decoded.minutiae):
            assert restored.x == pytest.approx(original.x, abs=0.51)
            assert restored.y == pytest.approx(original.y, abs=0.51)
            assert restored.kind == original.kind
            assert restored.quality == original.quality
            angle_diff = abs(restored.angle - original.angle) % (2 * np.pi)
            assert min(angle_diff, 2 * np.pi - angle_diff) < 2 * np.pi / 256 + 1e-9

    def test_metadata_roundtrip(self, genuine_template_pair):
        template = genuine_template_pair[0]
        metadata = RecordMetadata(
            capture_device_id=3, finger_position=2, finger_quality=77,
            impression_type=0,
        )
        __, restored = decode(encode(template, metadata))
        assert restored.capture_device_id == 3
        assert restored.finger_position == 2
        assert restored.finger_quality == 77

    def test_real_pipeline_template(self, genuine_template_pair):
        template = genuine_template_pair[0]
        decoded, __ = decode(encode(template))
        assert len(decoded) == len(template)


class TestEncodeValidation:
    def test_too_many_minutiae(self):
        minutiae = tuple(
            Minutia(float(i % 100), float(i // 100), 0.0, KIND_ENDING, 50)
            for i in range(256)
        )
        template = Template(minutiae=minutiae, width_px=800, height_px=750)
        with pytest.raises(TemplateFormatError, match="255"):
            encode(template)

    def test_negative_coordinates_rejected(self):
        template = Template(
            minutiae=(Minutia(-5.0, 10.0, 0.0, KIND_ENDING, 50),),
            width_px=800, height_px=750,
        )
        with pytest.raises(TemplateFormatError):
            encode(template)


class TestDecodeStrictness:
    @pytest.fixture()
    def valid_record(self, genuine_template_pair):
        return encode(genuine_template_pair[0])

    def test_truncated_header(self):
        with pytest.raises(TemplateFormatError, match="shorter"):
            decode(b"FMR\x00 20\x00")

    def test_bad_magic(self, valid_record):
        corrupted = b"XXXX" + valid_record[4:]
        with pytest.raises(TemplateFormatError, match="identifier"):
            decode(corrupted)

    def test_bad_version(self, valid_record):
        corrupted = valid_record[:4] + b" 99\x00" + valid_record[8:]
        with pytest.raises(TemplateFormatError, match="version"):
            decode(corrupted)

    def test_wrong_declared_length(self, valid_record):
        wrong = struct.pack(">I", len(valid_record) + 5)
        corrupted = valid_record[:8] + wrong + valid_record[12:]
        with pytest.raises(TemplateFormatError, match="length"):
            decode(corrupted)

    def test_truncated_body(self, valid_record):
        truncated = valid_record[:-4]
        with pytest.raises(TemplateFormatError):
            decode(truncated)

    def test_minutia_count_mismatch(self, valid_record):
        # Bump the declared minutia count without adding bytes.
        header_size = struct.calcsize(">4s4sIIHHHHHBB")
        count_offset = header_size + 3
        original = valid_record[count_offset]
        corrupted = (
            valid_record[:count_offset]
            + bytes([min(original + 1, 255)])
            + valid_record[count_offset + 1 :]
        )
        with pytest.raises(TemplateFormatError, match="imply"):
            decode(corrupted)


def _columns(template):
    return (
        template.positions_px(), template.angles(), template.kinds(),
        template.qualities(),
    )


class TestFuzz:
    """Damaged records decode or raise TemplateFormatError, nothing else."""

    @staticmethod
    def _decodes_or_refuses(buffer):
        try:
            template, __ = decode(buffer)
        except TemplateFormatError:
            return
        # Whatever decodes is a valid template that encodes back.
        assert decode(encode(template))[0] == template

    @given(template_strategy, st.integers(min_value=1, max_value=255))
    @settings(max_examples=25, deadline=None)
    def test_every_single_byte_flip(self, template, mask):
        record = encode(template)
        for offset in range(len(record)):
            flipped = bytearray(record)
            flipped[offset] ^= mask
            self._decodes_or_refuses(bytes(flipped))

    @given(template_strategy)
    @settings(max_examples=25, deadline=None)
    def test_every_truncation(self, template):
        record = encode(template)
        for end in range(len(record)):
            self._decodes_or_refuses(record[:end])

    @pytest.mark.parametrize("quality", [101, 200, 255])
    def test_quality_over_100_is_a_format_error(self, quality):
        template = Template(
            minutiae=(Minutia(5.0, 6.0, 0.0, KIND_ENDING, 50),),
            width_px=800, height_px=750,
        )
        record = bytearray(encode(template))
        record[-3] = quality  # the only minutia's quality byte
        with pytest.raises(TemplateFormatError, match="quality"):
            decode(bytes(record))

    @pytest.mark.parametrize("offset", [18, 20])
    def test_zero_image_size_is_a_format_error(self, offset):
        template = Template(minutiae=(), width_px=256, height_px=256)
        record = bytearray(encode(template))
        record[offset] = 0  # high byte of the width (18) or height (20)
        with pytest.raises(TemplateFormatError, match="image size"):
            decode(bytes(record))

    @given(template_strategy)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_keeps_columns_at_wire_precision(self, template):
        decoded, __ = decode(encode(template))
        assert decoded == template
        for got, want in zip(_columns(decoded), _columns(template)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert decode(encode(decoded))[0] == decoded
