"""Tests for flat-parameter serialization (round trips and error handling)."""

from __future__ import annotations

import numpy as np
import pytest
from helpers import TwoLayerNet

from repro.models import SmallCNN
from repro.nn.serialization import (
    FlatParams,
    get_flat_params,
    set_flat_params,
    vector_to_state_dict,
)


def _make_model(seed: int = 0):
    return TwoLayerNet((6, 8, 3), seeds=(seed, seed + 1))


class TestFlatParams:
    def test_get_flat_params_length(self):
        model = _make_model()
        assert get_flat_params(model).size == model.num_parameters()

    def test_roundtrip_preserves_values(self):
        model = _make_model(0)
        vector = get_flat_params(model)
        other = _make_model(5)
        set_flat_params(other, vector)
        np.testing.assert_allclose(get_flat_params(other), vector)

    def test_set_flat_params_wrong_size_raises(self):
        model = _make_model()
        with pytest.raises(ValueError):
            set_flat_params(model, np.zeros(3))

    def test_set_flat_params_copies_data(self):
        model = _make_model()
        vector = np.zeros(model.num_parameters())
        set_flat_params(model, vector)
        vector[:] = 5.0
        assert np.all(get_flat_params(model) == 0.0)

    def test_roundtrip_on_cnn(self):
        model = SmallCNN(in_channels=1, image_size=12, num_classes=10, width=4,
                         rng=np.random.default_rng(0))
        vector = get_flat_params(model)
        clone = SmallCNN(in_channels=1, image_size=12, num_classes=10, width=4,
                         rng=np.random.default_rng(1))
        set_flat_params(clone, vector)
        np.testing.assert_allclose(get_flat_params(clone), vector)

class TestDtypePolicy:
    """Flat vectors keep the native float32 dtype; float64 is an explicit opt-in."""

    def test_get_flat_params_defaults_to_native_float32(self):
        assert get_flat_params(_make_model()).dtype == np.float32

    def test_get_flat_params_float64_opt_in(self):
        model = _make_model()
        vector = get_flat_params(model, dtype=np.float64)
        assert vector.dtype == np.float64
        np.testing.assert_allclose(vector, get_flat_params(model), atol=1e-7)

    def test_vector_to_state_dict_casts_to_parameter_dtype(self):
        model = _make_model()
        state = vector_to_state_dict(np.zeros(model.num_parameters(), dtype=np.float64), model)
        assert all(value.dtype == np.float32 for value in state.values())

    def test_flat_buffer_is_contiguous(self):
        vector = get_flat_params(_make_model())
        assert vector.flags["C_CONTIGUOUS"]


class TestFlatParamsView:
    def test_named_slices_are_views(self):
        model = _make_model()
        flat = FlatParams.from_module(model)
        name, param = next(model.named_parameters())
        np.testing.assert_array_equal(flat[name], param.data)
        flat[name][...] = 7.0
        assert np.all(flat.vector[: param.data.size] == 7.0)  # same buffer

    def test_names_follow_parameter_order(self):
        model = _make_model()
        flat = FlatParams.from_module(model)
        assert flat.names() == [name for name, _ in model.named_parameters()]

    def test_roundtrip_through_module(self):
        source, target = _make_model(0), _make_model(9)
        flat = FlatParams.from_module(source)
        flat.write_to(target)
        np.testing.assert_array_equal(get_flat_params(target), flat.vector)

    def test_from_vector_validates_size(self):
        model = _make_model()
        with pytest.raises(ValueError):
            FlatParams.from_vector(np.zeros(3), model)

    def test_with_vector_reuses_layout(self):
        model = _make_model()
        flat = FlatParams.from_module(model)
        other = flat.with_vector(np.zeros_like(flat.vector))
        assert other.names() == flat.names()
        with pytest.raises(ValueError):
            flat.with_vector(np.zeros(3))

    def test_to_state_dict_matches_module_state(self):
        model = _make_model(4)
        flat = FlatParams.from_module(model)
        state = flat.to_state_dict()
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(state[name], param.data)

    def test_copy_is_deep(self):
        flat = FlatParams.from_module(_make_model())
        clone = flat.copy()
        clone.vector[:] = 0.0
        assert not np.all(flat.vector == 0.0)

    def test_layout_offsets_tile_the_buffer(self):
        model = TwoLayerNet((6, 8, 3))
        layout = FlatParams.layout_of(model)
        assert list(layout) == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]
        offset = 0
        for name, param in model.named_parameters():
            assert layout[name] == (offset, param.data.shape)
            offset += param.data.size
        assert offset == model.num_parameters()

    def test_membership_and_unknown_names(self):
        flat = FlatParams.from_module(_make_model())
        assert "fc2.bias" in flat
        assert "fc3.bias" not in flat
        with pytest.raises(KeyError):
            flat["fc3.bias"]

    def test_from_vector_wraps_without_copying(self):
        model = _make_model()
        vector = get_flat_params(model)
        flat = FlatParams.from_vector(vector, model)
        assert np.shares_memory(flat.vector, vector)
        np.testing.assert_array_equal(flat["fc1.weight"], model.fc1.weight.data)

    def test_astype_copies_only_on_a_dtype_change(self):
        flat = FlatParams.from_module(_make_model())
        assert flat.astype(np.float32).vector is flat.vector
        wide = flat.astype(np.float64)
        assert wide.dtype == np.float64 and wide.names() == flat.names()
        np.testing.assert_array_equal(wide.vector, flat.vector)

    def test_to_state_dict_returns_copies(self):
        flat = FlatParams.from_module(_make_model())
        state = flat.to_state_dict()
        state["fc1.weight"][:] = 0.0
        assert not np.all(flat["fc1.weight"] == 0.0)

    def test_nbytes_halved_vs_float64(self):
        model = _make_model()
        assert FlatParams.from_module(model).nbytes * 2 == (
            FlatParams.from_module(model, dtype=np.float64).nbytes
        )


class TestStateDictVector:
    def test_vector_to_state_dict_matches_parameters(self):
        model = _make_model(3)
        recovered = vector_to_state_dict(get_flat_params(model), model)
        assert list(recovered) == [name for name, _ in model.named_parameters()]
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(recovered[name], param.data)

    def test_state_dict_arrays_do_not_alias_the_vector(self):
        model = _make_model()
        vector = get_flat_params(model)
        state = vector_to_state_dict(vector, model)
        for array in state.values():
            array[...] = 0.0
        np.testing.assert_array_equal(vector, get_flat_params(model))

    def test_set_flat_params_casts_to_the_parameter_dtype(self):
        model = _make_model()
        vector = np.linspace(-1.0, 1.0, model.num_parameters())
        set_flat_params(model, vector)
        assert all(param.dtype == np.float32 for param in model.parameters())
        np.testing.assert_array_equal(get_flat_params(model), vector.astype(np.float32))

    def test_vector_too_short_raises(self):
        model = _make_model()
        with pytest.raises(ValueError):
            vector_to_state_dict(np.zeros(model.num_parameters() - 1), model)

    def test_vector_too_long_raises(self):
        model = _make_model()
        with pytest.raises(ValueError):
            vector_to_state_dict(np.zeros(model.num_parameters() + 1), model)
