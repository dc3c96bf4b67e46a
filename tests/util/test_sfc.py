"""Tests for space-filling curves (Morton + Hilbert)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import GeometryError
from repro.util.geometry import Box
from repro.util.sfc import (
    hilbert_decode,
    hilbert_encode,
    hilbert_encode_many,
    morton_decode,
    morton_encode,
    morton_encode_many,
    sfc_order_boxes,
)


class TestMorton:
    def test_known_2d_values(self):
        # Z-order in 2D: (0,0)=0 (1,0)=1 (0,1)=2 (1,1)=3
        assert morton_encode((0, 0), 1) == 0
        assert morton_encode((1, 0), 1) == 1
        assert morton_encode((0, 1), 1) == 2
        assert morton_encode((1, 1), 1) == 3

    def test_roundtrip_3d(self):
        for coords in [(0, 0, 0), (5, 3, 7), (7, 7, 7), (1, 0, 6)]:
            key = morton_encode(coords, 3)
            assert morton_decode(key, 3, 3) == coords

    def test_out_of_range_rejected(self):
        with pytest.raises(GeometryError):
            morton_encode((8,), 3)
        with pytest.raises(GeometryError):
            morton_encode((-1,), 3)
        with pytest.raises(GeometryError):
            morton_decode(-1, 2, 3)

    def test_bits_bounds(self):
        with pytest.raises(GeometryError):
            morton_encode((0,), 0)
        with pytest.raises(GeometryError):
            morton_encode((0,), 63)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        coords = rng.integers(0, 16, size=(50, 3))
        keys = morton_encode_many(coords, 4)
        for row, key in zip(coords, keys):
            assert morton_encode(tuple(row), 4) == key

    def test_vectorized_capacity_guard(self):
        with pytest.raises(GeometryError):
            morton_encode_many(np.zeros((1, 3), dtype=int), 21)

    def test_vectorized_shape_guard(self):
        with pytest.raises(GeometryError):
            morton_encode_many(np.zeros(5, dtype=int), 4)


class TestHilbert:
    def test_known_2d_order_bits1(self):
        # First-order 2D Hilbert visits (0,0),(0,1),(1,1),(1,0).
        order = sorted(
            [(0, 0), (0, 1), (1, 0), (1, 1)],
            key=lambda c: hilbert_encode(c, 1),
        )
        assert order == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_bijective_2d(self):
        bits = 3
        seen = set()
        for x in range(8):
            for y in range(8):
                k = hilbert_encode((x, y), bits)
                assert 0 <= k < 64
                assert hilbert_decode(k, 2, bits) == (x, y)
                seen.add(k)
        assert len(seen) == 64

    def test_bijective_3d(self):
        bits = 2
        seen = set()
        for x in range(4):
            for y in range(4):
                for z in range(4):
                    k = hilbert_encode((x, y, z), bits)
                    assert hilbert_decode(k, 3, bits) == (x, y, z)
                    seen.add(k)
        assert len(seen) == 64

    def test_adjacency_2d(self):
        """Consecutive Hilbert indices are unit-distance neighbours."""
        bits = 4
        pts = [hilbert_decode(k, 2, bits) for k in range(1 << (2 * bits))]
        for a, b in zip(pts, pts[1:]):
            dist = abs(a[0] - b[0]) + abs(a[1] - b[1])
            assert dist == 1

    def test_adjacency_3d(self):
        bits = 2
        pts = [hilbert_decode(k, 3, bits) for k in range(1 << (3 * bits))]
        for a, b in zip(pts, pts[1:]):
            dist = sum(abs(x - y) for x, y in zip(a, b))
            assert dist == 1

    def test_1d_identity(self):
        assert hilbert_encode((5,), 4) == 5
        assert hilbert_decode(5, 1, 4) == (5,)

    def test_decode_out_of_range(self):
        with pytest.raises(GeometryError):
            hilbert_decode(64, 2, 3)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        coords = rng.integers(0, 32, size=(100, 2))
        keys = hilbert_encode_many(coords, 5)
        for row, key in zip(coords, keys):
            assert hilbert_encode(tuple(row), 5) == key

    def test_vectorized_3d_matches_scalar(self):
        rng = np.random.default_rng(2)
        coords = rng.integers(0, 8, size=(60, 3))
        keys = hilbert_encode_many(coords, 3)
        for row, key in zip(coords, keys):
            assert hilbert_encode(tuple(row), 3) == key

    @pytest.mark.parametrize("bits", [3, 11, 20])
    def test_vectorized_3d_matches_scalar_full_words(self, bits):
        rng = np.random.default_rng(2)
        coords = rng.integers(0, 1 << bits, size=(60, 3))
        coords[0] = (1 << bits) - 1  # every bit of every word set
        keys = hilbert_encode_many(coords, bits)
        for row, key in zip(coords, keys):
            assert hilbert_encode(tuple(row), bits) == key


@settings(max_examples=150)
@given(
    st.integers(1, 3),
    st.integers(1, 6),
    st.data(),
)
def test_hilbert_roundtrip_property(ndim, bits, data):
    coords = tuple(
        data.draw(st.integers(0, (1 << bits) - 1)) for _ in range(ndim)
    )
    key = hilbert_encode(coords, bits)
    assert hilbert_decode(key, ndim, bits) == coords


@settings(max_examples=150)
@given(st.integers(1, 3), st.integers(1, 6), st.data())
def test_morton_roundtrip_property(ndim, bits, data):
    coords = tuple(
        data.draw(st.integers(0, (1 << bits) - 1)) for _ in range(ndim)
    )
    key = morton_encode(coords, bits)
    assert morton_decode(key, ndim, bits) == coords


class TestSfcOrderBoxes:
    def test_empty(self):
        assert len(sfc_order_boxes([])) == 0

    def test_preserves_membership(self):
        boxes = [
            Box((0, 0), (4, 4), 0),
            Box((8, 8), (12, 12), 0),
            Box((0, 8), (4, 12), 0),
            Box((8, 0), (12, 4), 0),
        ]
        out = sfc_order_boxes(boxes)
        assert sorted(b.corner_key() for b in out) == sorted(
            b.corner_key() for b in boxes
        )

    def test_hilbert_order_is_locality_preserving(self):
        """Adjacent quadrant boxes must be adjacent on the curve."""
        boxes = [
            Box((0, 0), (4, 4), 0),
            Box((4, 0), (8, 4), 0),
            Box((0, 4), (4, 8), 0),
            Box((4, 4), (8, 8), 0),
        ]
        out = list(sfc_order_boxes(boxes, curve="hilbert"))
        lowers = [b.lower for b in out]
        assert lowers == [(0, 0), (0, 4), (4, 4), (4, 0)]

    def test_multi_level_interleaving(self):
        coarse = Box((0, 0), (8, 8), 0)
        fine = Box((0, 0), (8, 8), 1)  # overlays lower-left quadrant
        out = list(sfc_order_boxes([fine, coarse]))
        # Same promoted corner: coarse first (lower level tie-break).
        assert out[0].level == 0 and out[1].level == 1

    def test_morton_curve_option(self):
        boxes = [Box((2, 2), (3, 3)), Box((0, 0), (1, 1))]
        out = list(sfc_order_boxes(boxes, curve="morton"))
        assert out[0].lower == (0, 0)

    def test_unknown_curve_rejected(self):
        with pytest.raises(GeometryError):
            sfc_order_boxes([Box((0,), (1,))], curve="peano")

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        boxes = [
            Box(tuple(lo), tuple(lo + 1), 0)
            for lo in rng.integers(0, 50, size=(30, 2))
        ]
        a = list(sfc_order_boxes(boxes))
        b = list(sfc_order_boxes(boxes))
        assert a == b
