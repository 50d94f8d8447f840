"""End-to-end integration: a full CNN classified under the BFV protocol."""

import numpy as np
import pytest

from repro.he import BfvParameters, flash_backend
from repro.nn import (
    QuantizedCnn,
    make_mini_cnn,
    make_mini_resnet,
    make_synthetic_dataset,
    train,
    train_test_split,
)
from repro.protocol.private_network import PrivateCnnEvaluator


@pytest.fixture(scope="module")
def setup():
    ds = make_synthetic_dataset(900, size=8, channels=1, seed=4)
    tr, te = train_test_split(ds)
    model = make_mini_cnn(channels=1, size=8, width=4, seed=0)
    train(model, tr, epochs=6, lr=0.08, seed=1)
    qnet = QuantizedCnn.from_float(model, tr.images[:150], w_bits=4, a_bits=4)
    # Ring: n=256 holds the 8x8 planes; t sized for the worst sum-product.
    params = BfvParameters(n=256, plain_modulus=1 << 17, q_bits=(30, 30))
    return qnet, te, params


class TestPrivateCnnEvaluator:
    def test_exact_backend_matches_plain_inference(self, setup):
        qnet, te, params = setup
        evaluator = PrivateCnnEvaluator(qnet, params)
        rng = np.random.default_rng(0)
        trace = evaluator.infer(te.images[0], rng)
        assert trace.matches_plain
        assert trace.prediction == int(trace.expected_logits.argmax())

    def test_trace_accounting(self, setup):
        qnet, te, params = setup
        evaluator = PrivateCnnEvaluator(qnet, params)
        rng = np.random.default_rng(1)
        trace = evaluator.infer(te.images[1], rng)
        assert len(trace.layer_stats) == 3  # conv, conv, linear
        assert trace.total_bytes > 0
        assert trace.total_ciphertexts >= 6
        assert trace.min_noise_budget > 0

    def test_flash_backend_classification_robust(self, setup):
        qnet, te, params = setup
        backend = flash_backend(
            params.n, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
        )
        evaluator = PrivateCnnEvaluator(qnet, params, backend)
        rng = np.random.default_rng(2)
        agree = 0
        for i in range(3):
            trace = evaluator.infer(te.images[i], rng)
            if trace.prediction == int(trace.expected_logits.argmax()):
                agree += 1
        assert agree == 3

    def test_private_accuracy(self, setup):
        qnet, te, params = setup
        evaluator = PrivateCnnEvaluator(qnet, params)
        rng = np.random.default_rng(3)
        acc = evaluator.accuracy(te.images, te.labels, rng, max_samples=4)
        plain = qnet.accuracy_int(te.images[:4], te.labels[:4])
        assert acc == plain

    def test_rejects_undersized_plaintext_ring(self, setup):
        qnet, _, _ = setup
        small = BfvParameters(n=256, plain_modulus=1 << 8, q_bits=(30, 30))
        with pytest.raises(ValueError):
            PrivateCnnEvaluator(qnet, small)


class TestResidualNetwork:
    """Residual joins (``res_push``/``res_add``) under the protocol."""

    @pytest.fixture(scope="class")
    def qnet(self):
        ds = make_synthetic_dataset(40, size=8, channels=1, seed=4)
        model = make_mini_resnet(channels=1, size=8, width=4, seed=0)
        return QuantizedCnn.from_float(model, ds.images[:20], w_bits=4, a_bits=4), ds

    def test_mini_resnet_infer_matches_plain(self, qnet):
        net, ds = qnet
        assert "res_push" in [op[0] for op in net.ops]
        params = BfvParameters(n=256, plain_modulus=1 << 17, q_bits=(30, 30))
        evaluator = PrivateCnnEvaluator(net, params)
        trace = evaluator.infer(ds.images[0], np.random.default_rng(0))
        assert np.array_equal(trace.logits, trace.expected_logits)
        assert len(trace.layer_stats) == 4  # conv, conv, conv, linear
