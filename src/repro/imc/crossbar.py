"""Analog crossbar array model for matrix-vector multiplication.

The DNN stacks of both RecSys stages run on FeFET crossbar banks
(Sec. III-A2); the paper evaluates them with NeuroSim [22] at a 45 nm FeFET
node.  This module reproduces the *functional* pipeline of such a crossbar:

1. weights are mapped to differential conductance pairs
   ``G+ - G-`` within ``[g_min, g_max]``;
2. the input vector is applied through DACs of ``dac_bits`` resolution
   (bit-serial input streaming for multi-bit activations);
3. the column currents realise the analog dot products, perturbed by
   device-to-device conductance variation (lognormal-ish Gaussian on G);
4. ADCs of ``adc_bits`` resolution quantise the column outputs.

A noiseless, full-precision configuration reduces exactly to ``W @ x``,
which the tests use as the ground truth; the noisy configurations feed the
accuracy ablations.  The per-MVM cost is the Table II crossbar FoM, scaled
by the number of array tiles a layer occupies (see
:mod:`repro.core.dnn_stack`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["CrossbarConfig", "CrossbarArray"]


@dataclass(frozen=True)
class CrossbarConfig:
    """Analog configuration of a crossbar tile.

    Attributes
    ----------
    rows / cols:
        Physical tile dimensions; the paper's DNN tile is 256 x 128.
    g_min_us / g_max_us:
        Conductance range in microsiemens.
    dac_bits / adc_bits:
        Converter resolutions; ``0`` disables quantisation (ideal
        converters), which the unit tests use for exactness checks.
    conductance_sigma:
        Relative (fractional) device-to-device conductance variation.
    """

    rows: int = 256
    cols: int = 128
    g_min_us: float = 0.1
    g_max_us: float = 10.0
    dac_bits: int = 8
    adc_bits: int = 8
    conductance_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("crossbar dimensions must be positive")
        if not 0.0 < self.g_min_us < self.g_max_us:
            raise ValueError("conductance range must satisfy 0 < g_min < g_max")
        if self.dac_bits < 0 or self.adc_bits < 0:
            raise ValueError("converter resolutions must be non-negative")
        if self.conductance_sigma < 0.0:
            raise ValueError("conductance sigma must be non-negative")


class CrossbarArray:
    """One analog crossbar tile programmed with a weight sub-matrix."""

    def __init__(self, config: Optional[CrossbarConfig] = None, rng: Optional[np.random.Generator] = None):
        self.config = config or CrossbarConfig()
        self._rng = rng or np.random.default_rng(0)
        self._g_pos: Optional[np.ndarray] = None
        self._g_neg: Optional[np.ndarray] = None
        self._weight_scale = 1.0

    @property
    def is_programmed(self) -> bool:
        return self._g_pos is not None

    # -- programming -------------------------------------------------------------
    def program(self, weights: np.ndarray) -> None:
        """Map *weights* (rows x cols) onto differential conductance pairs.

        Positive weights land on the G+ device, negative on G-; magnitudes
        are normalised so the largest |w| uses the full conductance range.
        Programming noise (``conductance_sigma``) is applied once here,
        modelling write-verify residual error.
        """
        matrix = np.asarray(weights, dtype=np.float64)
        config = self.config
        if matrix.shape != (config.rows, config.cols):
            raise ValueError(
                f"weights must be {config.rows}x{config.cols}, got {matrix.shape}"
            )
        max_abs = float(np.abs(matrix).max())
        self._weight_scale = max_abs if max_abs > 0.0 else 1.0
        normalised = matrix / self._weight_scale
        span = config.g_max_us - config.g_min_us
        g_pos = config.g_min_us + span * np.clip(normalised, 0.0, 1.0)
        g_neg = config.g_min_us + span * np.clip(-normalised, 0.0, 1.0)
        if config.conductance_sigma > 0.0:
            g_pos = g_pos * (1.0 + self._rng.normal(0.0, config.conductance_sigma, g_pos.shape))
            g_neg = g_neg * (1.0 + self._rng.normal(0.0, config.conductance_sigma, g_neg.shape))
            g_pos = np.clip(g_pos, 0.0, None)
            g_neg = np.clip(g_neg, 0.0, None)
        self._g_pos = g_pos
        self._g_neg = g_neg

    # -- compute ---------------------------------------------------------------
    def matvec(self, inputs: np.ndarray) -> np.ndarray:
        """Analog matrix-vector product ``W.T @ x`` through the tile.

        The input is quantised by the DACs, driven along the rows, and the
        differential column currents are quantised by the ADCs.  With ideal
        converters and zero noise this equals the exact product.
        """
        if not self.is_programmed:
            raise RuntimeError("crossbar must be programmed before matvec")
        vector = np.asarray(inputs, dtype=np.float64)
        config = self.config
        if vector.shape != (config.rows,):
            raise ValueError(f"input must have {config.rows} entries, got {vector.shape}")

        driven = self._quantise(vector, config.dac_bits)
        span = config.g_max_us - config.g_min_us
        differential = (self._g_pos - self._g_neg) / span  # back to weight scale
        currents = driven @ differential
        outputs = currents * self._weight_scale
        return self._quantise(outputs, config.adc_bits)

    # -- helpers ---------------------------------------------------------------
    @staticmethod
    def _quantise(values: np.ndarray, bits: int) -> np.ndarray:
        """Uniform symmetric quantisation to ``bits`` (0 = ideal converter)."""
        if bits == 0:
            return values
        levels = (1 << (bits - 1)) - 1
        max_abs = float(np.abs(values).max())
        if max_abs == 0.0:
            return values
        # Floor the step so subnormal outputs cannot underflow it to 0.0
        # (which would turn the division into NaN).
        step = max(max_abs / levels, np.finfo(np.float64).tiny)
        return np.round(values / step) * step
