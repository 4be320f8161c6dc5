"""ANSI/INCITS 378-2004 finger minutiae record codec.

The study's context is exactly this format: the paper cites MINEX
(NISTIR 7296), the evaluation of "performance and interoperability of
the INCITS 378 fingerprint template".  Implementing the binary record
keeps this reproduction's templates exchangeable in the same sense.

Implemented subset (single finger view, no extended data):

========================  ========  =====================================
field                     bytes     value
========================  ========  =====================================
format identifier         4         ``"FMR\\0"``
version                   4         ``" 20\\0"``
record length             4         big-endian u32
CBEFF product id          4         owner/type (we use 0x0000)
capture equipment         2         compliance(4 bits) + device id
image size x, y           2 + 2     pixels
resolution x, y           2 + 2     pixels per cm
finger view count         1         always 1 here
reserved                  1         0
-- per view -------------------------------------------------------------
finger position           1         ISO finger code
view number / impression  1         packed 4+4 bits
finger quality            1         0-100
minutia count             1
-- per minutia ----------------------------------------------------------
type + x                  2         2-bit type, 14-bit x
reserved + y              2         2-bit reserved, 14-bit y
angle                     1         units of 1.40625 degrees (360/256)
quality                   1         0-100
-- footer ---------------------------------------------------------------
extended data length      2         0
========================  ========  =====================================

The codec is strict on decode: truncated or inconsistent buffers — and
field values no template can hold, such as a minutia quality above 100
or a zero image size — raise
:class:`~repro.runtime.errors.TemplateFormatError` with a description of
what went wrong, never a silent partial template.  The minutia rows are
packed and parsed as one structured numpy array each way.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..matcher.types import KIND_BIFURCATION, KIND_ENDING, Template, template_from_arrays
from ..runtime.errors import TemplateFormatError

_MAGIC = b"FMR\x00"
_VERSION = b" 20\x00"
_HEADER_FMT = ">4s4sIIHHHHHBB"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_VIEW_HEADER_FMT = ">BBBB"
_VIEW_HEADER_SIZE = struct.calcsize(_VIEW_HEADER_FMT)
#: One minutia on the wire: type + x, reserved + y, angle, quality.
_MINUTIA_DTYPE = np.dtype(
    [("type_x", ">u2"), ("y", ">u2"), ("angle", "u1"), ("quality", "u1")]
)
_MINUTIA_SIZE = _MINUTIA_DTYPE.itemsize
_FOOTER_SIZE = 2

#: INCITS 378 minutia type codes.  The 2-bit code indexes
#: ``_CODE_TO_KIND``; code 0b00 ("other") reads as an ending and 0b11 is
#: invalid (kind 0).
_BIFURCATION_CODE = 0b10
_ENDING_CODE = 0b01
_CODE_TO_KIND = np.array([KIND_ENDING, KIND_ENDING, KIND_BIFURCATION, 0])

#: Angle quantum: 360 degrees / 256.
_ANGLE_UNIT_RAD = 2.0 * np.pi / 256.0


@dataclass(frozen=True)
class RecordMetadata:
    """Non-template metadata carried in an INCITS 378 record."""

    capture_device_id: int = 0
    finger_position: int = 2  # right index
    finger_quality: int = 60
    impression_type: int = 0  # live-scan plain


def _dpi_to_ppcm(dpi: int) -> int:
    return int(round(dpi / 2.54))


def _ppcm_to_dpi(ppcm: int) -> int:
    return int(round(ppcm * 2.54))


def encode(template: Template, metadata: RecordMetadata = RecordMetadata()) -> bytes:
    """Serialize ``template`` into an INCITS 378 binary record."""
    n = len(template)
    if n > 255:
        raise TemplateFormatError(f"INCITS 378 allows at most 255 minutiae, got {n}")
    record_length = _HEADER_SIZE + _VIEW_HEADER_SIZE + n * _MINUTIA_SIZE + _FOOTER_SIZE

    header = struct.pack(
        _HEADER_FMT,
        _MAGIC,
        _VERSION,
        record_length,
        0,  # CBEFF product id
        metadata.capture_device_id & 0x0FFF,
        template.width_px,
        template.height_px,
        _dpi_to_ppcm(template.resolution_dpi),
        _dpi_to_ppcm(template.resolution_dpi),
        1,  # one finger view
        0,  # reserved
    )
    view = struct.pack(
        _VIEW_HEADER_FMT,
        metadata.finger_position & 0xFF,
        ((0 & 0x0F) << 4) | (metadata.impression_type & 0x0F),
        max(0, min(100, metadata.finger_quality)),
        n,
    )

    xy = np.rint(template.positions_px())
    outside = ~((xy >= 0) & (xy < 2**14)).all(axis=1)
    if outside.any():
        x, y = (int(v) for v in xy[int(np.argmax(outside))])
        raise TemplateFormatError(
            f"minutia position ({x}, {y}) outside the 14-bit INCITS range"
        )
    rows = np.empty(n, dtype=_MINUTIA_DTYPE)
    codes = np.where(
        template.kinds() == KIND_BIFURCATION, _BIFURCATION_CODE, _ENDING_CODE
    )
    rows["type_x"] = (codes << 14) | xy[:, 0].astype(np.int64)
    rows["y"] = xy[:, 1].astype(np.int64) & 0x3FFF
    rows["angle"] = (
        np.rint(np.mod(template.angles(), 2 * np.pi) / _ANGLE_UNIT_RAD).astype(np.int64)
        % 256
    )
    rows["quality"] = np.clip(template.qualities(), 0, 100)
    footer = struct.pack(">H", 0)
    return header + view + rows.tobytes() + footer


def decode(buffer: bytes) -> Tuple[Template, RecordMetadata]:
    """Parse an INCITS 378 record back into a template plus metadata.

    Raises
    ------
    TemplateFormatError
        On any structural inconsistency (bad magic, truncated body,
        wrong declared length).
    """
    if len(buffer) < _HEADER_SIZE + _VIEW_HEADER_SIZE + _FOOTER_SIZE:
        raise TemplateFormatError(
            f"buffer of {len(buffer)} bytes is shorter than a minimal record"
        )
    (
        magic,
        version,
        record_length,
        __cbeff,
        device_field,
        width_px,
        height_px,
        res_x_ppcm,
        res_y_ppcm,
        view_count,
        __reserved,
    ) = struct.unpack_from(_HEADER_FMT, buffer, 0)

    if magic != _MAGIC:
        raise TemplateFormatError(f"bad format identifier {magic!r}")
    if version != _VERSION:
        raise TemplateFormatError(f"unsupported version {version!r}")
    if record_length != len(buffer):
        raise TemplateFormatError(
            f"declared length {record_length} != buffer length {len(buffer)}"
        )
    if view_count != 1:
        raise TemplateFormatError(
            f"this codec handles single-view records, got {view_count} views"
        )
    if res_x_ppcm != res_y_ppcm:
        raise TemplateFormatError(
            f"anisotropic resolution {res_x_ppcm}x{res_y_ppcm} not supported"
        )

    offset = _HEADER_SIZE
    position, view_impression, finger_quality, n_minutiae = struct.unpack_from(
        _VIEW_HEADER_FMT, buffer, offset
    )
    offset += _VIEW_HEADER_SIZE

    expected = offset + n_minutiae * _MINUTIA_SIZE + _FOOTER_SIZE
    if expected != len(buffer):
        raise TemplateFormatError(
            f"{n_minutiae} minutiae imply {expected} bytes, buffer has {len(buffer)}"
        )

    rows = np.frombuffer(buffer, dtype=_MINUTIA_DTYPE, count=n_minutiae, offset=offset)
    type_codes = (rows["type_x"] >> 14).astype(np.int64)
    kinds = _CODE_TO_KIND[type_codes]
    qualities = rows["quality"].astype(np.int64)
    bad = (kinds == 0) | (qualities > 100)
    if bad.any():
        i = int(np.argmax(bad))
        if kinds[i] == 0:
            raise TemplateFormatError(f"unknown minutia type code {type_codes[i]}")
        raise TemplateFormatError(
            f"minutia {i} has quality {qualities[i]}, outside 0..100"
        )
    if width_px == 0 or height_px == 0:
        raise TemplateFormatError(f"image size {width_px}x{height_px} is empty")
    if res_x_ppcm == 0:
        raise TemplateFormatError("resolution of 0 pixels per cm")

    positions = np.empty((n_minutiae, 2), dtype=np.float64)
    positions[:, 0] = rows["type_x"] & 0x3FFF
    positions[:, 1] = rows["y"] & 0x3FFF
    template = template_from_arrays(
        positions_px=positions,
        angles=rows["angle"] * _ANGLE_UNIT_RAD,
        kinds=kinds,
        qualities=qualities,
        width_px=width_px,
        height_px=height_px,
        resolution_dpi=_ppcm_to_dpi(res_x_ppcm),
    )
    metadata = RecordMetadata(
        capture_device_id=device_field & 0x0FFF,
        finger_position=position,
        finger_quality=finger_quality,
        impression_type=view_impression & 0x0F,
    )
    return template, metadata


__all__ = ["encode", "decode", "RecordMetadata"]
