"""Tests for the forecast series."""

import numpy as np
import pytest

from watermpc.forecast import ForecastSeries


class TestForecastSeries:
    def test_dimensions(self):
        fs = ForecastSeries(d_hat=np.ones((4, 2)), alpha_hat=np.ones((4, 3)))
        assert fs.horizon == 4
        assert fs.n_demand == 2
        assert fs.n_price == 3

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ForecastSeries(d_hat=np.array([[-0.1]]), alpha_hat=np.array([[1.0]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="dHat"):
            ForecastSeries(d_hat=np.zeros((0, 1)), alpha_hat=np.zeros((0, 1)))

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            ForecastSeries(d_hat=np.ones((3, 1)), alpha_hat=np.ones((2, 1)))


    @pytest.mark.parametrize("key, field", [("dHat", "d_hat"), ("alphaHat", "alpha_hat")])
    def test_non_finite_entry_is_named(self, key, field):
        arrays = {"d_hat": np.ones((2, 1)), "alpha_hat": np.ones((2, 1))}
        arrays[field][1, 0] = np.nan
        with pytest.raises(ValueError, match=f"^{key} must be finite$"):
            ForecastSeries(**arrays)
