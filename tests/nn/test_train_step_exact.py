"""Differential exactness of the local-training step.

The training step was rewritten for speed (flat parameter storage, one-vector
optimizers, no first-layer input gradient, ``np.maximum`` ReLU, one-pass
``cross_entropy``) under the promise that no seeded history changes. This file
freezes the step as it was before that rewrite — per-parameter SGD loops,
``np.where`` ReLU, two-softmax ``cross_entropy``, full backward — and requires
the live step to reproduce it byte for byte. The reference is the spec: do not
"modernise" it.
"""

import multiprocessing as mp
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from repro.data.datasets import DATASET_SPECS, make_dataset
from repro.data.partition import dirichlet_partition
from repro.exec import BACKENDS
from repro.fl.client import Client
from repro.fl.config import ExperimentConfig
from repro.fl.simulation import Simulation
from repro.nn.functional import col2im
from repro.nn.layers import Conv2d, Layer, Linear, ReLU
from repro.nn.losses import cross_entropy
from repro.nn.models import MODEL_BUILDERS, build_model
from repro.nn.sequential import BasicBlock, Sequential
from tests.conftest import is_aliased

BATCH = 32

# --------------------------------------------------------------------------
# The frozen reference step.


class RefLinear(Linear):
    def backward(self, grad_out):
        self.weight.grad += self._x.T @ grad_out
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        grad_in = grad_out @ self.weight.data.T
        self._x = None
        return grad_in


class RefConv2d(Conv2d):
    def backward(self, grad_out):
        k, s, p = self.kernel_size, self.stride, self.padding
        n, oc, oh, ow = grad_out.shape
        g2d = grad_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, oc)
        gw = self._cols.T @ g2d
        self.weight.grad += gw.T.reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += g2d.sum(axis=0)
        gcols = g2d @ self.weight.data.reshape(oc, -1)
        grad_in = col2im(gcols, self._x_shape, k, k, s, p)
        self._cols = None
        self._x_shape = None
        return grad_in


class RefReLU(ReLU):
    def forward(self, x, training=True):
        mask = x > 0
        if training:
            self._mask = mask
        return np.where(mask, x, 0)

    def backward(self, grad_out):
        grad_in = np.where(self._mask, grad_out, 0)
        self._mask = None
        return grad_in


class RefBasicBlock(BasicBlock):
    def forward(self, x, training=True):
        identity = x if self.downsample is None else self.downsample.forward(x, training=training)
        out = self.conv1.forward(x, training=training)
        out = self.bn1.forward(out, training=training)
        out = self.relu1.forward(out, training=training)
        out = self.conv2.forward(out, training=training)
        out = self.bn2.forward(out, training=training)
        out = out + identity
        mask = out > 0
        if training:
            self._out_mask = mask
        return np.where(mask, out, 0)

    def backward(self, grad_out):
        g = np.where(self._out_mask, grad_out, 0)
        self._out_mask = None
        g_main = self.bn2.backward(g)
        g_main = self.conv2.backward(g_main)
        g_main = self.relu1.backward(g_main)
        g_main = self.bn1.backward(g_main)
        g_main = self.conv1.backward(g_main)
        g_skip = g if self.downsample is None else self.downsample.backward(g)
        return g_main + g_skip


_REF_CLASS = {Linear: RefLinear, Conv2d: RefConv2d, ReLU: RefReLU, BasicBlock: RefBasicBlock}


def _freeze(layer):
    """Swap every rewritten layer under ``layer`` for its frozen twin, in place."""
    layer.__class__ = _REF_CLASS.get(type(layer), type(layer))
    children = layer.layers if isinstance(layer, Sequential) else vars(layer).values()
    for child in children:
        if isinstance(child, Layer):
            _freeze(child)
    return layer


def ref_softmax(x, axis=-1):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def ref_log_softmax(x, axis=-1):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def ref_cross_entropy(logits, labels):
    labels = np.asarray(labels)
    n = logits.shape[0]
    lsm = ref_log_softmax(logits, axis=1)
    loss = -float(lsm[np.arange(n), labels].mean())
    grad = ref_softmax(logits, axis=1)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(logits.dtype)


class RefSGD:
    def __init__(self, params, lr):
        self.params, self.lr = params, lr

    def step(self):
        for p in self.params:
            p.data -= self.lr * p.grad


def ref_local_train(client, model, global_params, *, lr, epochs, proximal_mu=0.0, global_states=None):
    """``Client.local_train`` as it was, on a model that is *not* flat-stored."""
    params = model.parameters()
    offset = 0
    for p in params:
        p.data[...] = global_params[offset : offset + p.size].reshape(p.data.shape)
        offset += p.size
    if global_states is not None:
        for live, saved in zip(model.state_arrays(), global_states):
            live[...] = saved
    opt = RefSGD(params, lr)
    anchors = [p.data.copy() for p in params] if proximal_mu > 0 else None
    total_loss, batches = 0.0, 0
    for _ in range(epochs):
        for x, y in client.loader:
            for p in params:
                p.grad[...] = 0
            loss, grad = ref_cross_entropy(model(x, training=True), y)
            model.backward(grad)
            if anchors is not None:
                for p, anchor in zip(params, anchors):
                    p.grad += proximal_mu * (p.data - anchor)
            opt.step()
            total_loss += loss
            batches += 1
    local = np.concatenate([p.data.ravel() for p in params])
    states = [a.copy() for a in model.state_arrays()]
    return global_params - local, states, total_loss / max(batches, 1), batches


# --------------------------------------------------------------------------
# Whole-step differential: every model x optimizer, three chained rounds.

OPTIMIZERS = {
    "sgd": dict(lr=0.1),
    "sgd+proximal_mu": dict(lr=0.1, proximal_mu=0.1),
}

_SPEC = DATASET_SPECS["synth-cifar10"]
_GEOMETRY = dict(in_channels=_SPEC.channels, image_size=_SPEC.image_size, num_classes=_SPEC.num_classes)


def _shard():
    """One client's shard of a Dirichlet(0.5) split, sized so the last batch is ragged."""
    data = make_dataset("synth-cifar10", 400, seed=3)
    partition = dirichlet_partition(data.y, 5, 0.5, seed=3)
    return next(data.subset(ix) for ix in partition.client_indices if len(ix) > BATCH and len(ix) % BATCH)


def _three_rounds(train, model, w0, hyper):
    """Chain three calls the way a simulation does: next round starts at w − Δw."""
    out, w, states = [], w0, None
    for _ in range(3):
        delta, states, loss, batches = train(model, w, epochs=2, global_states=states, **hyper)
        out.append((delta.tobytes(), [s.tobytes() for s in states], loss, batches))
        w = w - delta
    return out


def _live_train(client):
    def train(model, w, **kwargs):
        res = client.local_train(model, w, **kwargs)
        return res.delta, res.state_arrays, res.mean_loss, res.num_batches

    return train


def _initial_params(model_name):
    return np.concatenate([p.data.ravel() for p in build_model(model_name, seed=7, **_GEOMETRY).parameters()])


def _reference_rounds(model_name, hyper):
    shard = _shard()
    ref_model = _freeze(build_model(model_name, seed=7, **_GEOMETRY))
    train = partial(ref_local_train, Client(0, shard, BATCH, np.random.default_rng(11)))
    return _three_rounds(train, ref_model, _initial_params(model_name), hyper)


def _live_rounds(model, model_name, hyper):
    client = Client(0, _shard(), BATCH, np.random.default_rng(11))
    out = _three_rounds(_live_train(client), model, _initial_params(model_name), hyper)
    return out, is_aliased(model)


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("model_name", MODEL_BUILDERS)
def test_local_train_matches_frozen_step(model_name, optimizer):
    hyper = OPTIMIZERS[optimizer]
    expected = _reference_rounds(model_name, hyper)
    assert expected[0][3] >= 4  # 2 epochs x (>= 1 full + 1 ragged batch)
    live, aliased = _live_rounds(build_model(model_name, seed=0, **_GEOMETRY), model_name, hyper)
    assert live == expected
    assert aliased


def _in_fork(fn):
    """Run ``fn`` in a forked child, as the process backend runs its workers."""
    ctx = mp.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def target():
        send.send(fn())

    proc = ctx.Process(target=target, daemon=True)
    proc.start()
    assert recv.poll(120), "forked child produced no result"
    result = recv.recv()
    proc.join(30)
    assert not proc.is_alive()
    return result


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("model_name", ["mlp", "small_cnn"])
def test_backend_replica_matches_frozen_step(model_name, backend):
    """The model each backend trains on — the simulation's own (serial), a
    replica in a pool thread (thread), a replica inherited by fork (process) —
    reproduces the frozen step and keeps its parameters aliased."""
    hyper = OPTIMIZERS["sgd"]
    config = ExperimentConfig(dataset="synth-cifar10", model=model_name, num_clients=4, num_train=200,
                              num_test=50, rounds=1, backend=backend, workers=2, seed=0)
    with Simulation(config) as sim:
        model = sim.model if backend == "serial" else sim._replica_model()

        def run():
            return _live_rounds(model, model_name, hyper)

        if backend == "serial":
            live, aliased = run()
        elif backend == "thread":
            with ThreadPoolExecutor(max_workers=1) as pool:
                live, aliased = pool.submit(run).result(timeout=120)
        else:
            live, aliased = _in_fork(run)
    assert live == _reference_rounds(model_name, hyper)
    assert aliased


# --------------------------------------------------------------------------
# Kernel-level pins on special values.

_SPECIALS = np.array([-np.inf, -3.5, -1e-45, -0.0, 0.0, 1e-45, 2.0, np.inf, np.nan], dtype=np.float32)


def test_relu_forward_special_values():
    """``np.maximum(x, 0)`` equals ``np.where(x > 0, x, 0)`` bit for bit on every
    input except two. NaN propagates where ``np.where`` wrote 0 (``NaN > 0`` is
    false) — a diverged model stays visibly diverged. For −0.0 IEEE ``maximum``
    may return either zero, ``np.where`` returned +0.0; only the value is pinned.
    Neither occurs in a finite training run's pre-activations after a +0.0-
    initialised bias or BatchNorm shift has been added."""
    x = np.tile(_SPECIALS, 8).reshape(8, -1)  # wide enough for the SIMD loop
    got = ReLU().forward(x)
    want = RefReLU().forward(x)
    same = ~np.isnan(x) & ~((x == 0) & np.signbit(x))
    assert got[same].tobytes() == want[same].tobytes()
    assert np.isnan(got[np.isnan(x)]).all() and (want[np.isnan(x)] == 0).all()
    assert (got[(x == 0) & np.signbit(x)] == 0).all()
    assert got.dtype == want.dtype == np.float32


def test_relu_backward_special_values():
    """``grad_out * mask`` equals ``np.where(mask, grad_out, 0)`` bit for bit where
    the unit was active. Where it was not, the product is ±0 with the sign of
    the incoming gradient (``np.where`` wrote +0.0), and a non-finite incoming
    gradient gives NaN (``inf * 0``) where ``np.where`` hid it. A signed zero
    cannot reach a parameter: every ``.grad`` is ``+0.0 + Σ`` and ±0 terms vanish
    in the sums — `test_local_train_matches_frozen_step` proves it on Δw bytes."""
    x = np.repeat(np.array([-1.0, 0.0, -0.0, 1.0], dtype=np.float32), _SPECIALS.size).reshape(4, -1)
    grad_out = np.tile(_SPECIALS, (4, 1))
    live, ref = ReLU(), RefReLU()
    live.forward(x)
    ref.forward(x)
    with np.errstate(invalid="ignore"):  # inf * 0
        got, want = live.backward(grad_out), ref.backward(grad_out)
    active = x > 0
    assert got[active].tobytes() == want[active].tobytes() == grad_out[active].tobytes()
    finite = ~active & np.isfinite(grad_out)
    assert (got[finite] == 0).all() and (want[finite] == 0).all()
    assert np.isnan(got[~active & ~np.isfinite(grad_out)]).all()
    assert (want[~active] == 0).all() and not np.signbit(want[~active]).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_matches_two_pass_reference(dtype):
    """One-pass ``cross_entropy`` derives loss and gradient from the very
    intermediates the two-pass version computed twice, so it is bit-equal on
    *every* input, non-finite ones included (no input may differ)."""
    rng = np.random.default_rng(0)
    logits = rng.normal(scale=4.0, size=(12, 10)).astype(dtype)
    logits[1] = 0.0  # uniform row: exact-zero shifted logits
    logits[2, :5] = -0.0
    logits[3] = [200.0] + [-200.0] * 9  # saturated: exp underflows, log(sum) = 0
    logits[4, 2] = np.inf  # inf − inf = NaN row
    logits[5, 3] = -np.inf  # exp(−inf) = 0
    logits[6, 4] = np.nan
    logits[7] = -np.inf  # max is −inf: NaN row
    labels = rng.integers(0, 10, size=12)
    with np.errstate(all="ignore"):
        finite_rows = np.isfinite(logits).all(axis=1)
        for rows in (finite_rows, np.ones(12, dtype=bool)):
            loss, grad = cross_entropy(logits[rows], labels[rows])
            ref_loss, ref_grad = ref_cross_entropy(logits[rows], labels[rows])
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert grad.tobytes() == ref_grad.tobytes()
            assert grad.dtype == ref_grad.dtype == dtype
    assert np.isfinite(cross_entropy(logits[finite_rows], labels[finite_rows])[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scale", [1.0, 10.0, 50.0])
@pytest.mark.parametrize("batch", [1, 7, 36, 64])
def test_cross_entropy_grid_matches_reference(batch, scale, dtype):
    """Direct reductions and the gradient built in ``exp``'s own storage:
    same bytes over the batch sizes a ragged shard produces (full, tail, one)
    and from calm to saturating logits; the input is left untouched."""
    rng = np.random.default_rng(batch * 1000 + int(scale))
    logits = rng.normal(scale=scale, size=(batch, 10)).astype(dtype)
    labels = rng.integers(0, 10, size=batch)
    before = logits.copy()
    loss, grad = cross_entropy(logits, labels)
    ref_loss, ref_grad = ref_cross_entropy(logits, labels)
    assert isinstance(loss, float)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert grad.tobytes() == ref_grad.tobytes() and grad.dtype == dtype
    assert logits.tobytes() == before.tobytes() and not np.shares_memory(grad, logits)
