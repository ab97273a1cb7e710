"""Hypothesis property tests for the crossbar MVM (ideal configuration)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.imc.crossbar import CrossbarArray, CrossbarConfig

_IDEAL = CrossbarConfig(rows=8, cols=4, dac_bits=0, adc_bits=0, conductance_sigma=0.0)

weights_st = arrays(
    dtype=np.float64,
    shape=st.just((8, 4)),
    elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64),
)
inputs_st = arrays(
    dtype=np.float64,
    shape=st.just((8,)),
    elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64),
)


def _tile(weights):
    tile = CrossbarArray(_IDEAL)
    tile.program(weights)
    return tile


@given(weights_st, inputs_st)
@settings(max_examples=100)
def test_ideal_matvec_exact(weights, inputs):
    np.testing.assert_allclose(
        _tile(weights).matvec(inputs), inputs @ weights, rtol=1e-9, atol=1e-9
    )


@given(weights_st, inputs_st, inputs_st)
@settings(max_examples=50)
def test_matvec_additivity(weights, a, b):
    """Ideal analog MVM is linear: f(a + b) = f(a) + f(b)."""
    tile = _tile(weights)
    combined = tile.matvec(a + b)
    separate = tile.matvec(a) + tile.matvec(b)
    np.testing.assert_allclose(combined, separate, rtol=1e-9, atol=1e-9)


@given(weights_st, inputs_st, st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
@settings(max_examples=50)
def test_matvec_homogeneity(weights, inputs, scalar):
    tile = _tile(weights)
    np.testing.assert_allclose(
        tile.matvec(scalar * inputs),
        scalar * tile.matvec(inputs),
        rtol=1e-9,
        atol=1e-8,
    )


@given(weights_st)
@settings(max_examples=50)
def test_zero_input_zero_output(weights):
    assert np.allclose(_tile(weights).matvec(np.zeros(8)), 0.0)


@given(weights_st, inputs_st)
@example(weights=np.ones((8, 4)), inputs=np.full(8, 5e-324))  # subnormal outputs
@settings(max_examples=50)
def test_adc_quantisation_bounded(weights, inputs):
    """8-bit ADC output stays within half a step of the exact product."""
    config = CrossbarConfig(rows=8, cols=4, dac_bits=0, adc_bits=8)
    tile = CrossbarArray(config)
    tile.program(weights)
    exact = inputs @ weights
    outputs = tile.matvec(inputs)
    max_abs = np.abs(exact).max()
    if max_abs == 0.0:
        np.testing.assert_allclose(outputs, exact, atol=1e-12)
    else:
        step = max_abs / 127.0
        assert np.abs(outputs - exact).max() <= 0.5 * step + 1e-9
