"""The contract every registered compressor keeps, checked name by name.

A run reaches a compressor only through :func:`make_compressor`, so each
registered name is held to what the round path relies on: a float32 dense
reconstruction of the input's length, an input left untouched, an update that
owns its arrays, no entry whose sign flips or magnitude grows, fewer bits than
the dense upload, seed and state behaviour that matches the traits the
name declares, and an emitted size equal to the wire size it declares.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.base import compression_error
from repro.compression.registry import (
    available_compressors,
    compressor_traits,
    make_compressor,
    register_compressor,
    wire_size,
)
from repro.network.transport import Payload

NAMES = available_compressors()
D = 257
RATIO = 0.25


def vector(seed: int, d: int = D) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=d).astype(np.float32)


def signature(update) -> tuple:
    """Every array a compressed update carries, as bytes."""
    return tuple(
        (k, v.tobytes() if isinstance(v, np.ndarray) else v) for k, v in sorted(vars(update).items())
    )


@pytest.mark.parametrize("name", NAMES)
def test_reconstruction_is_float32_of_the_input_length(name):
    out = make_compressor(name, seed=1).compress(vector(0), RATIO).to_dense()
    assert out.shape == (D,) and out.dtype == np.float32


@pytest.mark.parametrize("name", NAMES)
def test_input_is_left_untouched(name):
    u = vector(0)
    before = u.copy()
    make_compressor(name, seed=1).compress(u, RATIO)
    np.testing.assert_array_equal(u, before)


@pytest.mark.parametrize("name", NAMES)
def test_update_owns_its_arrays(name):
    """Overwriting the input afterwards must not reach the held update."""
    u = vector(0)
    update = make_compressor(name, seed=1).compress(u, RATIO)
    want = update.to_dense().copy()
    u[:] = 123.0
    np.testing.assert_array_equal(update.to_dense(), want)


@pytest.mark.parametrize("name", NAMES)
def test_zero_vector_maps_to_zero(name):
    out = make_compressor(name, seed=1).compress(np.zeros(D, np.float32), RATIO).to_dense()
    np.testing.assert_array_equal(out, 0.0)


@pytest.mark.parametrize("name", NAMES)
def test_no_sign_flips(name):
    u = vector(0)
    u[::5] = 0.0
    out = make_compressor(name, seed=1).compress(u, RATIO).to_dense()
    assert (out * u >= 0).all()
    np.testing.assert_array_equal(out[u == 0], 0.0)


@pytest.mark.parametrize("name", NAMES)
def test_magnitudes_bounded_by_the_input(name):
    u = vector(0)
    out = make_compressor(name, seed=1).compress(u, RATIO).to_dense()
    assert np.abs(out).max() <= np.abs(u).max() * (1 + 1e-6)


@pytest.mark.parametrize("name", NAMES)
def test_float64_and_strided_inputs_compress_like_their_float32_copy(name):
    wide = np.random.default_rng(0).normal(size=2 * D)
    want = make_compressor(name, seed=1).compress(wide[::2].astype(np.float32), RATIO)
    got = make_compressor(name, seed=1).compress(wide[::2], RATIO)
    assert signature(got) == signature(want)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_replays_the_same_sequence(name):
    a, b = make_compressor(name, seed=7), make_compressor(name, seed=7)
    for r in range(3):
        assert signature(a.compress(vector(r), RATIO)) == signature(b.compress(vector(r), RATIO))


@pytest.mark.parametrize("name", NAMES)
def test_seed_matters_exactly_when_declared(name):
    seeded, _ = compressor_traits(name)
    a = make_compressor(name, seed=1).compress(vector(0), RATIO)
    b = make_compressor(name, seed=2).compress(vector(0), RATIO)
    assert (signature(a) != signature(b)) == seeded


@pytest.mark.parametrize("name", NAMES)
def test_history_matters_exactly_when_declared_stateful(name):
    """A shared (stateless) instance must answer a repeat exactly as before."""
    _, stateful = compressor_traits(name)
    comp = make_compressor(name, seed=1)
    first = comp.compress(vector(0), RATIO)
    again = comp.compress(vector(0), RATIO)
    assert (signature(first) != signature(again)) == stateful


@pytest.mark.parametrize("name", NAMES)
def test_fewer_bits_than_the_dense_upload(name):
    assert make_compressor(name, seed=1).compress(vector(0), RATIO).bits < 32 * D


@pytest.mark.parametrize("name", NAMES)
def test_reconstruction_beats_sending_nothing(name):
    u = vector(0)
    assert compression_error(u, make_compressor(name, seed=1).compress(u, RATIO)) < 1.0


@pytest.mark.parametrize("name", NAMES)
def test_single_entry_update_survives(name):
    u = np.array([-0.5], np.float32)
    np.testing.assert_allclose(make_compressor(name, seed=1).compress(u, RATIO).to_dense(), u)


@pytest.mark.parametrize("ratio", [1e-4, 0.1, 1.0])
@pytest.mark.parametrize("d", [1, 7, 33_610])
@pytest.mark.parametrize("name", NAMES)
def test_emitted_update_has_the_declared_wire_size(name, d, ratio):
    """Uploads are priced from the declaration before they are trained, so
    it must be exactly what the update then measures — at the k = 1 clamp
    (d·r < 1/2), at k ≥ d (d = 1, r = 1) and at the paper model's width."""
    entries, entry_bits, kind = wire_size(name, d, ratio)
    emitted = Payload.from_update(make_compressor(name, seed=1).compress(vector(0, d), ratio))
    assert (entries * entry_bits, kind) == (emitted.bits, emitted.kind)


def test_registration_requires_a_wire_size():
    with pytest.raises(TypeError, match="wire"):
        register_compressor("undeclared", lambda seed=0: make_compressor("topk"))
    assert "undeclared" not in available_compressors()
