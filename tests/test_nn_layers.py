"""LSTM / BRNN / Dense layers, including exact gradient checks."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn.bidirectional import BidirectionalLSTM
from repro.nn.dense import Dense
from repro.nn.initializers import glorot_uniform, orthogonal
from repro.nn.lstm import LSTMLayer


class TestInitializers:
    def test_glorot_range(self):
        weights = glorot_uniform((50, 60), rng=0)
        limit = np.sqrt(6.0 / 110)
        assert np.all(np.abs(weights) <= limit)

    def test_orthogonal_is_orthogonal(self):
        matrix = orthogonal((16, 16), rng=1)
        np.testing.assert_allclose(
            matrix @ matrix.T, np.eye(16), atol=1e-10
        )

    def test_orthogonal_rectangular(self):
        matrix = orthogonal((8, 16), rng=2)
        np.testing.assert_allclose(
            matrix @ matrix.T, np.eye(8), atol=1e-10
        )


class TestLSTM:
    def test_forward_shape(self):
        layer = LSTMLayer(3, 5, rng=0)
        out = layer.forward(np.zeros((2, 7, 3)))
        assert out.shape == (2, 7, 5)

    def test_rejects_bad_input_shape(self):
        layer = LSTMLayer(3, 5, rng=0)
        with pytest.raises(ModelError):
            layer.forward(np.zeros((2, 7, 4)))

    def test_backward_before_forward_raises(self):
        layer = LSTMLayer(3, 5, rng=0)
        with pytest.raises(ModelError):
            layer.backward(np.zeros((2, 7, 5)))

    def test_gradient_check(self, rng):
        layer = LSTMLayer(3, 4, rng=1)
        x = rng.standard_normal((2, 6, 3))
        target = rng.standard_normal((2, 6, 4))

        def loss():
            return 0.5 * np.sum((layer.forward(x) - target) ** 2)

        hidden = layer.forward(x)
        layer.zero_grads()
        layer.backward(hidden - target)
        eps = 1e-6
        for key in ("W", "U", "b"):
            param = layer.params[key]
            index = (0,) if param.ndim == 1 else (1, 2)
            param[index] += eps
            loss_plus = loss()
            param[index] -= 2 * eps
            loss_minus = loss()
            param[index] += eps
            numeric = (loss_plus - loss_minus) / (2 * eps)
            analytic = layer.grads[key][index]
            assert numeric == pytest.approx(analytic, rel=1e-4)

    def test_input_gradient_check(self, rng):
        layer = LSTMLayer(2, 3, rng=2)
        x = rng.standard_normal((1, 5, 2))
        target = rng.standard_normal((1, 5, 3))
        hidden = layer.forward(x)
        layer.zero_grads()
        dx = layer.backward(hidden - target)
        eps = 1e-6
        x_perturbed = x.copy()
        x_perturbed[0, 2, 1] += eps
        loss_plus = 0.5 * np.sum(
            (layer.forward(x_perturbed) - target) ** 2
        )
        x_perturbed[0, 2, 1] -= 2 * eps
        loss_minus = 0.5 * np.sum(
            (layer.forward(x_perturbed) - target) ** 2
        )
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert numeric == pytest.approx(dx[0, 2, 1], rel=1e-4)

    def test_forget_bias_initialized_positive(self):
        layer = LSTMLayer(3, 4, rng=3)
        assert np.all(layer.params["b"][4:8] == 1.0)


class TestBidirectional:
    def test_output_shape(self):
        brnn = BidirectionalLSTM(3, 4, rng=0)
        out = brnn.forward(np.zeros((2, 5, 3)))
        assert out.shape == (2, 5, 4)

    def test_uses_future_context(self, rng):
        # Output at t=0 must depend on input at the last step.
        brnn = BidirectionalLSTM(2, 3, rng=1)
        x = rng.standard_normal((1, 6, 2))
        base = brnn.forward(x)[0, 0]
        x_mod = x.copy()
        x_mod[0, -1] += 1.0
        modified = brnn.forward(x_mod)[0, 0]
        assert not np.allclose(base, modified)

    @pytest.mark.parametrize("shape", [(2, 0, 3), (0, 5, 3)])
    def test_inference_on_empty_batch_or_sequence(self, shape):
        brnn = BidirectionalLSTM(3, 4, rng=0)
        out = brnn.forward(np.zeros(shape), training=False)
        assert out.shape == shape[:2] + (4,)

    def test_param_keys_prefixed(self):
        brnn = BidirectionalLSTM(2, 3, rng=2)
        keys = set(brnn.params)
        assert {"fwd_W", "fwd_U", "fwd_b", "bwd_W", "bwd_U",
                "bwd_b"} == keys

    def test_gradient_check(self, rng):
        brnn = BidirectionalLSTM(2, 3, rng=3)
        x = rng.standard_normal((1, 4, 2))
        target = rng.standard_normal((1, 4, 3))
        hidden = brnn.forward(x)
        brnn.zero_grads()
        brnn.backward(hidden - target)
        eps = 1e-6
        param = brnn.backward_layer.params["W"]
        analytic = brnn.backward_layer.grads["W"][0, 1]
        param[0, 1] += eps
        loss_plus = 0.5 * np.sum((brnn.forward(x) - target) ** 2)
        param[0, 1] -= 2 * eps
        loss_minus = 0.5 * np.sum((brnn.forward(x) - target) ** 2)
        param[0, 1] += eps
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert numeric == pytest.approx(analytic, rel=1e-4)


class TestDense:
    def test_forward_affine(self):
        dense = Dense(3, 2, rng=0)
        dense.params["W"][...] = np.arange(6).reshape(3, 2)
        dense.params["b"][...] = [1.0, -1.0]
        out = dense.forward(np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 0.0]])

    def test_gradient_check(self, rng):
        dense = Dense(4, 3, rng=1)
        x = rng.standard_normal((5, 4))
        target = rng.standard_normal((5, 3))
        out = dense.forward(x)
        dense.zero_grads()
        dense.backward(out - target)
        eps = 1e-6
        param = dense.params["W"]
        analytic = dense.grads["W"][2, 1]
        param[2, 1] += eps
        loss_plus = 0.5 * np.sum((dense.forward(x) - target) ** 2)
        param[2, 1] -= 2 * eps
        loss_minus = 0.5 * np.sum((dense.forward(x) - target) ** 2)
        param[2, 1] += eps
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert numeric == pytest.approx(analytic, rel=1e-5)

    def test_works_on_3d_inputs(self, rng):
        dense = Dense(4, 2, rng=2)
        out = dense.forward(rng.standard_normal((2, 7, 4)))
        assert out.shape == (2, 7, 2)

    def test_rejects_wrong_last_dim(self):
        dense = Dense(4, 2, rng=3)
        with pytest.raises(ModelError):
            dense.forward(np.zeros((2, 3)))
