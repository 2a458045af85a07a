"""Nominal demand and price forecasts.

Forecasting is decoupled from the controller: any model that produces an
H_p-step-ahead series can drive the controller, either programmatically or
through the forecast JSON document (see :mod:`watermpc.io`). This module
defines the series container.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ForecastSeries:
    """H_p-step nominal forecasts: demands (m^3 per time unit of the model's
    dt) and prices per flow."""

    d_hat: np.ndarray      # (horizon, n_demand)
    alpha_hat: np.ndarray  # (horizon, n_price)

    def __post_init__(self) -> None:
        self.d_hat = np.atleast_2d(np.asarray(self.d_hat, float))
        self.alpha_hat = np.atleast_2d(np.asarray(self.alpha_hat, float))
        if self.d_hat.shape[0] != self.alpha_hat.shape[0]:
            raise ValueError(
                f"demand and price forecasts disagree on horizon: "
                f"{self.d_hat.shape[0]} vs {self.alpha_hat.shape[0]}"
            )
        if self.d_hat.size == 0:
            raise ValueError("dHat must not be empty")
        if self.alpha_hat.size == 0:
            raise ValueError("alphaHat must not be empty")
        for key, values in (("dHat", self.d_hat), ("alphaHat", self.alpha_hat)):
            if not np.isfinite(values).all():
                raise ValueError(f"{key} must be finite")
        if np.any(self.d_hat < 0):
            raise ValueError("dHat must be nonnegative")

    @property
    def horizon(self) -> int:
        return self.d_hat.shape[0]

    @property
    def n_demand(self) -> int:
        return self.d_hat.shape[1]

    @property
    def n_price(self) -> int:
        return self.alpha_hat.shape[1]

