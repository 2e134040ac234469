"""Tests for the sweep harness."""

import numpy as np
import pytest

from repro.analysis import PAPER_CACHE_SIZES, MissRatioCurve


class TestPaperConstants:
    def test_twelve_sizes_32_to_64k(self):
        assert len(PAPER_CACHE_SIZES) == 12
        assert PAPER_CACHE_SIZES[0] == 32
        assert PAPER_CACHE_SIZES[-1] == 65536


class TestMissRatioCurve:
    def test_at(self):
        curve = MissRatioCurve("t", (32, 64), (0.5, 0.4))
        assert curve.at(64) == 0.4

    def test_at_unknown_size(self):
        curve = MissRatioCurve("t", (32,), (0.5,))
        with pytest.raises(ValueError, match="not swept"):
            curve.at(128)

    def test_as_array(self):
        curve = MissRatioCurve("t", (32, 64), (0.5, 0.4))
        assert np.allclose(curve.as_array(), [0.5, 0.4])
