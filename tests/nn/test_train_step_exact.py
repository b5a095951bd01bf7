"""Differential exactness of the local-training step.

The training step was rewritten for speed (flat parameter storage, one-vector
optimizers, no first-layer input gradient, ``np.maximum`` ReLU, one-pass
``cross_entropy``, workspaces) under the promise that no seeded history
changes. This file freezes the step as it was before that rewrite, in plain
NumPy that shares no code with ``repro.nn``: He-uniform init drawn layer by
layer, ``x @ W + b`` forward, ``np.where`` ReLU, two-softmax cross-entropy,
full backward, per-parameter SGD — and requires the live step to reproduce
it byte for byte. The reference is the spec: do not "modernise" it.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.data.datasets import DATASET_SPECS, make_dataset
from repro.data.partition import dirichlet_partition
from repro.exec import BACKENDS
from repro.fl.client import Client
from repro.fl.config import ExperimentConfig
from repro.fl.simulation import Simulation
from repro.nn.losses import cross_entropy
from repro.nn.mlp import MLP
from tests.conftest import is_aliased
from tests.nn.test_mlp import SHAPES

BATCH = 32

# --------------------------------------------------------------------------
# The frozen reference step.


def dims_of(dataset):
    """Layer widths of the model the runs train on ``dataset``."""
    spec = DATASET_SPECS[dataset]
    return (spec.channels * spec.image_size**2, 128, 64, spec.num_classes)


def ref_init(seed, dims):
    """``[W0, b0, W1, b1, ...]``: each ``W`` He-uniform in draw order, biases zero."""
    rng = np.random.default_rng(seed)
    params = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = np.sqrt(6.0 / fan_in)
        params += [rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32),
                   np.zeros(fan_out, dtype=np.float32)]
    return params


def ref_forward(params, x):
    """Logits, and each layer's input and ReLU mask for the backward."""
    h = x.reshape(x.shape[0], -1)
    inputs, masks = [], []
    for i in range(0, len(params), 2):
        inputs.append(h)
        h = h @ params[i] + params[i + 1]
        if i + 2 < len(params):
            mask = h > 0
            masks.append(mask)
            h = np.where(mask, h, 0)
    return h, inputs, masks


def ref_backward(params, grads, inputs, masks, grad_out, x_shape):
    """Full backward: accumulates into zeroed ``grads``, returns ∂L/∂x."""
    for i in reversed(range(0, len(params), 2)):
        grads[i] += inputs[i // 2].T @ grad_out
        grads[i + 1] += grad_out.sum(axis=0)
        grad_out = grad_out @ params[i].T
        if i:
            grad_out = np.where(masks[i // 2 - 1], grad_out, 0)
    return grad_out.reshape(x_shape)


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


def ref_local_train(client, dims, global_params, *, lr, epochs, proximal_mu=0.0):
    """``Client.local_train`` as it was: one array per parameter, stepped one by one."""
    params, offset = [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        for shape in ((fan_in, fan_out), (fan_out,)):
            size = int(np.prod(shape))
            params.append(global_params[offset : offset + size].reshape(shape).astype(np.float32))
            offset += size
    anchors = [p.copy() for p in params] if proximal_mu > 0 else None
    total_loss, batches = 0.0, 0
    for _ in range(epochs):
        for x, y in client.loader:
            grads = [np.zeros_like(p) for p in params]
            logits, inputs, masks = ref_forward(params, x)
            loss, grad = ref_cross_entropy(logits, y)
            ref_backward(params, grads, inputs, masks, grad, x.shape)
            if anchors is not None:
                for g, p, anchor in zip(grads, params, anchors):
                    g += proximal_mu * (p - anchor)
            for p, g in zip(params, grads):
                p -= lr * g
            total_loss += loss
            batches += 1
    local = np.concatenate([p.ravel() for p in params])
    return global_params - local, total_loss / max(batches, 1), batches


def live_model(dims, seed):
    return MLP(dims[0], dims[-1], hidden=dims[1:-1], seed=seed)


# --------------------------------------------------------------------------
# One step: the parameter-only backward against the full one.

@pytest.mark.parametrize("batch", [1, 7, 32])
@pytest.mark.parametrize("shape", SHAPES)
def test_one_step_matches_frozen_backward(shape, batch):
    """Logits, loss and every parameter gradient of one step, byte for byte,
    on stacks of every depth."""
    dims = (3 * 2 * 2, *SHAPES[shape], 4)
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, 3, 2, 2)).astype(np.float32)
    y = rng.integers(0, 4, size=batch)
    params = ref_init(5, dims)
    for bias in params[1::2]:  # a trained model's biases are not zero
        bias[...] = rng.normal(size=bias.shape)
    grads = [np.zeros_like(p) for p in params]
    logits, inputs, masks = ref_forward(params, x)
    ref_loss, ref_grad = ref_cross_entropy(logits, y)
    ref_backward(params, grads, inputs, masks, ref_grad, x.shape)

    model = live_model(dims, 0)
    np.copyto(model.data, np.concatenate([p.ravel() for p in params]))
    live_logits = model(x, training=True)
    assert live_logits.tobytes() == logits.tobytes()
    loss, grad = cross_entropy(live_logits, y, out=live_logits)
    model.backward(grad)
    assert loss == ref_loss
    assert model.grad.tobytes() == np.concatenate([g.ravel() for g in grads]).tobytes()


# --------------------------------------------------------------------------
# Whole-step differential: every dataset geometry x optimizer, three chained rounds.

OPTIMIZERS = {
    "sgd": dict(lr=0.1),
    "sgd+proximal_mu": dict(lr=0.1, proximal_mu=0.1),
}
DATASETS = sorted(DATASET_SPECS)


def _shard(dataset):
    """One client's shard of a Dirichlet(0.5) split, sized so the last batch is ragged."""
    data = make_dataset(dataset, 400, seed=3)
    partition = dirichlet_partition(data.y, 5, 0.5, seed=3)
    return next(data.subset(ix) for ix in partition.client_indices if len(ix) > BATCH and len(ix) % BATCH)


def _three_rounds(train, w0, hyper):
    """Chain three calls the way a simulation does: next round starts at w − Δw."""
    out, w = [], w0
    for _ in range(3):
        delta, loss, batches = train(w, epochs=2, **hyper)
        out.append((delta.tobytes(), loss, batches))
        w = w - delta
    return out


def _initial(dataset):
    return np.concatenate([p.ravel() for p in ref_init(7, dims_of(dataset))])


def _reference_rounds(dataset, hyper):
    client = Client(0, _shard(dataset), BATCH, np.random.default_rng(11))
    dims = dims_of(dataset)
    return _three_rounds(lambda w, **kw: ref_local_train(client, dims, w, **kw), _initial(dataset), hyper)


def _live_rounds(model, dataset, hyper):
    client = Client(0, _shard(dataset), BATCH, np.random.default_rng(11))

    def train(w, **kwargs):
        res = client.local_train(model, w, **kwargs)
        return res.delta, res.mean_loss, res.num_batches

    return _three_rounds(train, _initial(dataset), hyper), is_aliased(model)


@pytest.mark.parametrize("dataset", DATASETS)
def test_init_matches_frozen_draws(dataset):
    assert live_model(dims_of(dataset), 7).data.tobytes() == _initial(dataset).tobytes()


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_local_train_matches_frozen_step(dataset, optimizer):
    hyper = OPTIMIZERS[optimizer]
    expected = _reference_rounds(dataset, hyper)
    assert expected[0][2] >= 4  # 2 epochs x (>= 1 full + 1 ragged batch)
    live, aliased = _live_rounds(live_model(dims_of(dataset), 0), dataset, hyper)
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
@pytest.mark.parametrize("dataset", DATASETS)
def test_backend_replica_matches_frozen_step(dataset, backend):
    """The model each backend trains on — the simulation's own, in the
    parent (serial) or in a forked child (process) — reproduces the frozen
    step and keeps its parameters aliased."""
    hyper = OPTIMIZERS["sgd"]
    config = ExperimentConfig(dataset=dataset, num_clients=4, num_train=200,
                              num_test=50, rounds=1, backend=backend, workers=2, seed=0)
    with Simulation(config) as sim:
        def run():
            return _live_rounds(sim.model, dataset, hyper)

        live, aliased = run() if backend == "serial" else _in_fork(run)
    assert live == _reference_rounds(dataset, hyper)
    assert aliased


# --------------------------------------------------------------------------
# Kernel-level pins on special values.

_SPECIALS = np.array([-np.inf, -3.5, -1e-45, -0.0, 0.0, 1e-45, 2.0, np.inf, np.nan], dtype=np.float32)


def _relu_probe(pre, incoming):
    """The live ReLU, forward and backward, on hidden unit ``j`` of a batch-of-one
    ``MLP(1 → k → 1)``: pre-activation ``pre[j]`` (``1 · W0[0, j] + 0``), and in
    backward the incoming gradient ``incoming[j]`` (``1 · W1[j, 0]``). Every
    product has one term, so the unit's activation reads back as ``dW1[j, 0]``
    (``a · 1``) and its masked gradient as ``db0[j]`` (a one-row sum)."""
    model = MLP(1, 1, hidden=(pre.size,), seed=0)
    (w0, b0, _, db0), (w1, _, dw1, _) = model.layers
    w0[0], b0[...], w1[:, 0] = pre, 0.0, incoming
    with np.errstate(all="ignore"):  # inf · 0 in the logits and the masked gradient
        model(np.ones((1, 1), dtype=np.float32))
        model.backward(np.ones((1, 1), dtype=np.float32))
    return dw1[:, 0].copy(), db0.copy()


def test_relu_forward_special_values():
    """``np.maximum(x, 0)`` equals ``np.where(x > 0, x, 0)`` bit for bit on every
    input except two. NaN propagates where ``np.where`` wrote 0 (``NaN > 0`` is
    false) — a diverged model stays visibly diverged. For −0.0 IEEE ``maximum``
    may return either zero, ``np.where`` returned +0.0; only the value is pinned.
    Neither occurs in a finite training run's pre-activations after a +0.0-
    initialised bias has been added."""
    x = np.tile(_SPECIALS, 8)  # wide enough for the SIMD loop
    got, _ = _relu_probe(x, np.ones_like(x))
    want = np.where(x > 0, x, 0)
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
    x = np.repeat(np.array([-1.0, 0.0, -0.0, 1.0], dtype=np.float32), _SPECIALS.size)
    grad_out = np.tile(_SPECIALS, 4)
    _, got = _relu_probe(x, grad_out)
    with np.errstate(invalid="ignore"):
        want = np.where(x > 0, grad_out, 0)
    active = x > 0
    assert np.array_equal(got[active], grad_out[active], equal_nan=True)
    nonzero = active & (grad_out != 0)
    assert got[nonzero].tobytes() == want[nonzero].tobytes() == grad_out[nonzero].tobytes()
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
