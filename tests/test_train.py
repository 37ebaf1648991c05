import json
import struct
import tracemalloc

import numpy as np
import pytest

import seistile.train as train_mod
from seistile.data import SynthConfig, TileConfig, generate_synthetic_volume, tile_volume
from seistile.errors import ConfigError, CorruptionError, DivergenceError, FormatError
from seistile.metrics import evaluate_testset
from seistile.network import build_model
from seistile.layers import softmax_cross_entropy
from seistile.tensor import Tensor, recording
from seistile.topology import count_parameters, layer_convs, layer_walk, parse_topology, preset, scale_widths
from seistile.train import (
    OptimizerConfig,
    RMSProp,
    TrainConfig,
    checkpoint_from_model,
    load_checkpoint,
    lr_at_epoch,
    restore_model,
    save_checkpoint,
    train,
)

TINY_DSL = "c3 s2 6\nru s2 8\ntru s2 6\ntc3 s2 4\nout 7"


def tiny_tiles(slices=3, tile=16, classes=7):
    vol, masks = generate_synthetic_volume(
        SynthConfig(slices=slices, height=32, width=32, num_classes=classes, horizon_waviness=0.5)
    )
    cfg = TileConfig(tile_h=tile, tile_w=tile, overlap_fraction=0.5)
    return vol, masks, tile_volume(vol, masks, range(slices), cfg)


# ---------------------------------------------------------------- optimizer

def test_rmsprop_hand_recurrence():
    w = Tensor(np.array([0.5]), requires_grad=True)
    opt = RMSProp([("w", w, False)], OptimizerConfig(weight_decay=0.0))
    w.grad = np.array([1.0])
    opt.step(lr=0.01)
    np.testing.assert_allclose(opt.ms["w"], [0.1])
    np.testing.assert_allclose(opt.mom["w"], [0.01 / np.sqrt(1.1)], rtol=1e-12)
    np.testing.assert_allclose(w.data, [0.5 - 0.01 / np.sqrt(1.1)], rtol=1e-12)


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_rmsprop_in_place_step_bitwise_matches_recurrence(weight_decay):
    rng = np.random.default_rng(5)
    cfg = OptimizerConfig(weight_decay=weight_decay)
    # "big" spans more than one update chunk and ends in a partial one
    shapes = {"k": (3, 3, 4, 5), "b": (5,), "big": (3, train_mod._STEP_CHUNK // 2 + 3)}
    params = {n: Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for n, s in shapes.items()}
    opt = RMSProp([(n, t, n != "b") for n, t in params.items()], cfg)
    w = {n: t.data.copy() for n, t in params.items()}
    ms = {n: np.zeros_like(a) for n, a in w.items()}
    mom = {n: np.zeros_like(a) for n, a in w.items()}
    for step in range(12):
        lr = 0.01 if step < 6 else 0.001
        for n, t in params.items():
            g = rng.normal(size=t.shape).astype(np.float32)
            t.grad = g.copy()
            if n != "b" and weight_decay:
                g = g + cfg.weight_decay * w[n]
            ms[n] = cfg.decay * ms[n] + (1.0 - cfg.decay) * g * g
            mom[n] = cfg.momentum * mom[n] + lr * g / np.sqrt(ms[n] + cfg.epsilon)
            w[n] = w[n] - mom[n]
        opt.step(lr)
    for n, t in params.items():
        np.testing.assert_array_equal(t.data, w[n])
        np.testing.assert_array_equal(opt.ms[n], ms[n])
        np.testing.assert_array_equal(opt.mom[n], mom[n])


def test_rmsprop_zero_grad_is_fixed_point():
    w = Tensor(np.array([1.25]), requires_grad=True)
    opt = RMSProp([("w", w, False)], OptimizerConfig(weight_decay=0.0))
    w.grad = np.array([0.0])
    opt.step(lr=0.1)
    np.testing.assert_array_equal(w.data, [1.25])


def test_rmsprop_momentum_decays_after_pulse():
    w = Tensor(np.array([0.0]), requires_grad=True)
    cfg = OptimizerConfig(weight_decay=0.0)
    opt = RMSProp([("w", w, False)], cfg)
    w.grad = np.array([1.0])
    opt.step(lr=0.01)
    first_mom = opt.mom["w"].copy()
    positions = [w.data.item()]
    for _ in range(2):
        w.grad = np.array([0.0])
        opt.step(lr=0.01)
        positions.append(w.data.item())
    # momentum decays by the momentum factor each step but keeps moving w
    np.testing.assert_allclose(opt.mom["w"], first_mom * 0.9**2, rtol=1e-12)
    assert positions[1] < positions[0] and positions[2] < positions[1]


def test_rmsprop_monotone_on_quadratic():
    # f(w) = a/2 w^2 with decay=momentum=0: step = lr*a*w/sqrt((a*w)^2 + 1)
    a, lr = 4.0, 0.4  # lr below 2/a
    w = Tensor(np.array([1.5]), requires_grad=True)
    opt = RMSProp([("w", w, False)], OptimizerConfig(decay=0.0, momentum=0.0, weight_decay=0.0))
    prev = a / 2 * w.data.item() ** 2
    for _ in range(60):
        w.grad = np.array([a * w.data.item()])
        opt.step(lr)
        cur = a / 2 * w.data.item() ** 2
        assert cur <= prev
        prev = cur
    assert prev < 1e-3


def test_weight_decay_touches_only_kernels():
    rng = np.random.default_rng(0)
    kernel_data = rng.normal(size=(3, 3, 2, 2))
    gamma_data = rng.normal(size=4)
    grad_k = rng.normal(size=(3, 3, 2, 2))
    grad_g = rng.normal(size=4)

    results = {}
    for wd in (0.0, 5e-4):
        kernel = Tensor(kernel_data.copy(), requires_grad=True)
        gamma = Tensor(gamma_data.copy(), requires_grad=True)
        opt = RMSProp(
            [("conv.kernel", kernel, True), ("bn.gamma", gamma, False)],
            OptimizerConfig(weight_decay=wd),
        )
        kernel.grad, gamma.grad = grad_k.copy(), grad_g.copy()
        opt.step(lr=0.01)
        results[wd] = (kernel.data.copy(), gamma.data.copy())
    np.testing.assert_array_equal(results[0.0][1], results[5e-4][1])  # BN identical
    assert not np.array_equal(results[0.0][0], results[5e-4][0])  # kernel differs


def test_rmsprop_rejects_non_finite_grads():
    w = Tensor(np.array([0.0]), requires_grad=True)
    opt = RMSProp([("layer3.kernel", w, True)], OptimizerConfig())
    w.grad = np.array([np.nan])
    with pytest.raises(DivergenceError, match="layer3.kernel"):
        opt.step(0.01)


def test_rmsprop_divergence_leaves_every_parameter_and_state_as_it_was():
    rng = np.random.default_rng(8)
    params = {n: Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
              for n, s in (("layer0.kernel", (3, 3, 1, 4)), ("layer0.bias", (4,)), ("layer1.kernel", (3, 3, 4, 2)))}
    opt = RMSProp([(n, t, n.endswith("kernel")) for n, t in params.items()], OptimizerConfig())
    for t in params.values():
        t.grad = rng.normal(size=t.shape).astype(np.float32)
    opt.step(0.01)  # ms and mom are no longer zero
    before = {n: (t.data.copy(), opt.ms[n].copy(), opt.mom[n].copy()) for n, t in params.items()}
    for t in params.values():
        t.grad = rng.normal(size=t.shape).astype(np.float32)
    params["layer1.kernel"].grad[1, 2, 3, 0] = np.inf  # the last parameter's gradient is bad
    with pytest.raises(DivergenceError, match="layer1.kernel at step 2"):
        opt.step(0.01)
    for n, t in params.items():
        for now, then in zip((t.data, opt.ms[n], opt.mom[n]), before[n]):
            np.testing.assert_array_equal(now, then)
    assert opt.step_count == 1


def test_optimizer_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(decay=1.0)
    with pytest.raises(ConfigError):
        OptimizerConfig(epsilon=0.0)


# ----------------------------------------------------------------- schedule

def test_lr_schedule_boundaries_inclusive():
    cfg = TrainConfig()
    assert lr_at_epoch(0, cfg) == 0.01
    assert lr_at_epoch(49, cfg) == 0.01
    assert lr_at_epoch(50, cfg) == 0.001
    assert lr_at_epoch(99, cfg) == 0.001
    assert lr_at_epoch(100, cfg) == 5e-4
    assert lr_at_epoch(149, cfg) == 5e-4
    assert lr_at_epoch(150, cfg) == 1e-5
    assert lr_at_epoch(199, cfg) == 1e-5


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr_schedule=((10, 0.1), (5, 0.01)))
    with pytest.raises(ConfigError):
        TrainConfig(lr_schedule=((0, -0.1),))
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="learning rates must be positive and finite"):
            TrainConfig(lr_schedule=((0, 0.1), (5, rate)))
    for entry in ((0,), (0, "0.1"), (0.5, 0.1), (True, 0.1), (0, None), 5):
        with pytest.raises(ConfigError, match="not an \\[epoch, rate\\] pair"):
            TrainConfig(lr_schedule=(entry,))
    assert TrainConfig(lr_schedule=[[0, 1], [5, 0.5]]).lr_schedule == [[0, 1], [5, 0.5]]
    for schedule in ((), ((3, 0.1),)):
        with pytest.raises(ConfigError, match="no rate for epoch 0"):
            TrainConfig(lr_schedule=schedule)
    assert lr_at_epoch(0, TrainConfig(lr_schedule=((-2, 0.5), (1, 0.1)))) == 0.5


# -------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_forward_bitwise(tmp_path):
    spec = parse_topology(TINY_DSL, name="tiny")
    model = build_model(spec, seed=3, dtype=np.float32)
    model.buffers()[0][1][:] = 0.25  # make running stats non-trivial
    x = Tensor(np.random.default_rng(1).normal(size=(2, 16, 16, 1)).astype(np.float32))
    before = model.forward(x, train=False).data

    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(model, epoch=5, val_miou=0.5), path)
    restored = restore_model(load_checkpoint(path))
    after = restored.forward(x, train=False).data
    assert np.array_equal(before, after)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_forward_tape_holds_only_what_the_rules_cannot_remake(dtype):
    """After a taped train forward the tape holds, per layer: its input
    unless a batch norm's xhat remakes it (so only after a residual unit,
    whose output is a residual sum), one xhat per batch-normed conv, and
    the softmax log_probs and label indices. Each BN-ReLU conv input is
    remade in backward, so none of them is counted."""
    spec = scale_widths(preset("danet-fcn2"), 0.5)
    model = build_model(spec, seed=0, dtype=dtype)
    n, h, w, item = 2, 80, 120, np.dtype(dtype).itemsize
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(n, h, w, 1)).astype(dtype))
    labels = rng.integers(0, model.num_classes, size=(n, h, w))

    counted = 0
    for layer, cin, h, w in layer_walk(spec, h, w):
        counted += sum(n * h * w * cout * item for _, _, cout, _, bn in layer_convs(layer, cin) if bn)
        if layer.residual:  # its output, a residual sum, is the next layer's input
            counted += n * h * w * layer.channels * item
    counted += n * h * w * (model.num_classes * item + 8)  # log_probs, int64 label indices

    def forward():
        with recording() as tape:  # the tape and the loss are alive when the memory is read
            loss = softmax_cross_entropy(model.forward(x, train=True), labels)
        return tracemalloc.get_traced_memory()[0]

    tape_bytes, _ = _traced_peak(forward)
    # the margin covers the records, closures and per-channel statistics (about 80 kB here)
    assert counted <= tape_bytes <= counted + (256 << 10)


def test_checkpoint_save_writes_from_the_arrays_and_load_reads_the_payload_once(tmp_path):
    """Save allocates no copy of the tensors and load holds the payload once,
    so neither peak grows with a second copy of the model."""
    model = build_model(scale_widths(preset("danet-fcn2"), 0.5), seed=0, dtype=np.float32)
    model.buffers()[0][1][:] = 0.25
    ckpt = checkpoint_from_model(model, epoch=1, val_miou=0.5)
    payload = 4 * (sum(a.size for a in ckpt.params.values()) + sum(a.size for a in ckpt.buffers.values()))
    assert payload >= 5 << 20
    path = tmp_path / "m.ckpt"
    _, save_peak = _traced_peak(lambda: save_checkpoint(ckpt, path))
    loaded, load_peak = _traced_peak(lambda: load_checkpoint(path))
    assert save_peak < 1 << 20
    assert load_peak <= payload + (1 << 20)
    restored = restore_model(loaded)
    for name, t, _ in restored.parameters():
        assert t.data.dtype == np.float32 and np.array_equal(t.data, ckpt.params[name])
    for name, buf in restored.buffers():
        assert np.array_equal(buf, ckpt.buffers[name])


def test_restore_hands_the_model_the_loaded_tensors(tmp_path):
    """A restored model holds the checkpoint's float32 arrays, so load +
    restore peaks at the payload, as load alone does."""
    model = build_model(scale_widths(preset("danet-fcn2"), 0.5), seed=0, dtype=np.float32)
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(model), path)
    payload = 4 * (count_parameters(model.spec) + sum(a.size for _, a in model.buffers()))
    _, peak = _traced_peak(lambda: restore_model(load_checkpoint(path)))
    assert peak <= payload + (1 << 20)
    ckpt = load_checkpoint(path)
    restored = restore_model(ckpt)
    for name, t, _ in restored.parameters():
        assert np.shares_memory(t.data, ckpt.params[name])
    for name, buf in restored.buffers():
        assert np.shares_memory(buf, ckpt.buffers[name])


def test_a_model_restored_from_a_file_trains(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(build_model(parse_topology(TINY_DSL), seed=3, dtype=np.float32)), path)
    model = restore_model(load_checkpoint(path))
    before = {name: t.data.copy() for name, t, _ in model.parameters()}
    for _, t, _ in model.parameters():
        t.grad = np.ones_like(t.data)
    RMSProp(model.parameters(), OptimizerConfig()).step(0.01)
    assert all((t.data != before[name]).all() for name, t, _ in model.parameters())


@pytest.mark.parametrize("name, values", [
    ("layer1.conv1.kernel", [np.nan]), ("layer0.conv.bias", [np.inf]), ("layer4.conv.kernel", [-np.inf]),
    ("layer0.bn.running_var", [np.inf, -np.inf]),  # their sum is NaN
])
def test_checkpoint_with_a_non_finite_value_is_corruption(tmp_path, name, values):
    model = build_model(parse_topology(TINY_DSL, name="tiny"), seed=0, dtype=np.float32)
    arrays = {n: t.data for n, t, _ in model.parameters()} | dict(model.buffers())
    arrays[name].flat[: len(values)] = values
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(model), path)
    with pytest.raises(CorruptionError, match=f"tensor {name} holds a NaN or infinite value"):
        load_checkpoint(path)


def test_float64_model_round_trips_as_its_float32_cast(tmp_path):
    model = build_model(parse_topology(TINY_DSL, name="tiny"), seed=3, dtype=np.float64)
    model.buffers()[1][1][:] = 1 / 3
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(model), path)
    restored = restore_model(load_checkpoint(path))
    for (_, saved, _), (_, t, _) in zip(model.parameters(), restored.parameters()):
        assert t.data.dtype == np.float32
        assert t.data.tobytes() == saved.data.astype(np.float32).tobytes()
    for (_, saved), (_, buf) in zip(model.buffers(), restored.buffers()):
        assert buf.dtype == np.float32 and buf.tobytes() == saved.astype(np.float32).tobytes()


def test_checkpoint_param_blob_length(tmp_path):
    spec = parse_topology(TINY_DSL, name="tiny")
    model = build_model(spec, seed=0, dtype=np.float32)
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(model), path)
    ckpt = load_checkpoint(path)
    param_bytes = sum(a.size * 4 for a in ckpt.params.values())
    assert param_bytes == 4 * count_parameters(spec)

    # the on-disk directory agrees: params are one contiguous leading section
    import json as _json

    blob = path.read_bytes()
    (hlen,) = np.frombuffer(blob[8:12], dtype="<u4")
    header = _json.loads(blob[12 : 12 + int(hlen)].decode())
    param_entries = [e for e in header["tensors"] if e["kind"] == "param"]
    assert param_entries[0]["offset"] == 0
    assert sum(e["nbytes"] for e in param_entries) == 4 * count_parameters(spec)


def _header(blob):
    hlen = int(np.frombuffer(blob[8:12], dtype="<u4")[0])
    return hlen, json.loads(blob[12 : 12 + hlen].decode())


def test_checkpoint_holds_only_parameters_and_running_stats(tmp_path):
    spec = parse_topology(TINY_DSL, name="tiny")
    model = build_model(spec, seed=0, dtype=np.float32)
    opt = RMSProp(model.parameters(), OptimizerConfig())
    for _, t, _ in model.parameters():
        t.grad = np.ones_like(t.data)
    opt.step(0.01)  # the optimizer has state, and the checkpoint does not take it

    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(model, opt, epoch=1, val_miou=0.4), path)
    ckpt = load_checkpoint(path)
    assert ckpt.epoch == 1 and abs(ckpt.val_miou - 0.4) < 1e-9

    blob = path.read_bytes()
    hlen, header = _header(blob)
    assert sorted(header) == ["epoch", "tensors", "topology", "val_miou"]
    assert [(e["kind"], e["name"]) for e in header["tensors"]] == (
        [("param", n) for n, _, _ in model.parameters()] + [("running", n) for n, _ in model.buffers()])
    running = sum(a.size for _, a in model.buffers())
    assert len(blob) == 12 + hlen + 4 * (count_parameters(spec) + running)


def test_checkpoint_tensor_directory_is_pinned(tmp_path):
    """The DNCKPT1 tensor names and their order for a net with every block
    kind: files written under these names must keep loading."""
    model = build_model(parse_topology("c3 s2 4\nru s2 8\nru 8\ntru s2 4\ntc3 s2 4\nout 3"), seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(model), path)
    _, header = _header(path.read_bytes())
    assert [(e["kind"], e["name"]) for e in header["tensors"]] == [("param", n) for n in [
        "layer0.conv.kernel", "layer0.conv.bias", "layer0.bn.gamma", "layer0.bn.beta",
        "layer1.conv1.kernel", "layer1.conv1.bias", "layer1.bn1.gamma", "layer1.bn1.beta",
        "layer1.conv2.kernel", "layer1.conv2.bias", "layer1.bn2.gamma", "layer1.bn2.beta",
        "layer1.shortcut.kernel", "layer1.shortcut.bias",
        "layer2.conv1.kernel", "layer2.conv1.bias", "layer2.bn1.gamma", "layer2.bn1.beta",
        "layer2.conv2.kernel", "layer2.conv2.bias", "layer2.bn2.gamma", "layer2.bn2.beta",
        "layer3.conv1.kernel", "layer3.conv1.bias", "layer3.bn1.gamma", "layer3.bn1.beta",
        "layer3.conv2.kernel", "layer3.conv2.bias", "layer3.bn2.gamma", "layer3.bn2.beta",
        "layer3.shortcut.kernel", "layer3.shortcut.bias",
        "layer4.conv.kernel", "layer4.conv.bias", "layer4.bn.gamma", "layer4.bn.beta",
        "layer5.conv.kernel", "layer5.conv.bias",
    ]] + [("running", n) for n in [
        "layer0.bn.running_mean", "layer0.bn.running_var",
        "layer1.bn1.running_mean", "layer1.bn1.running_var", "layer1.bn2.running_mean", "layer1.bn2.running_var",
        "layer2.bn1.running_mean", "layer2.bn1.running_var", "layer2.bn2.running_mean", "layer2.bn2.running_var",
        "layer3.bn1.running_mean", "layer3.bn1.running_var", "layer3.bn2.running_mean", "layer3.bn2.running_var",
        "layer4.bn.running_mean", "layer4.bn.running_var",
    ]]


def _with_optimizer_sections(blob):
    """The same checkpoint in the older layout that also stored RMSProp
    ``opt_ms``/``opt_mom`` after the running stats and the shuffle RNG state."""
    hlen, header = _header(blob)
    payload = blob[12 + hlen :]
    rng = np.random.default_rng(9)
    offset = len(payload)
    blobs = []
    params = [e for e in header["tensors"] if e["kind"] == "param"]
    for kind in ("opt_ms", "opt_mom"):
        for entry in params:
            data = rng.normal(size=entry["shape"]).astype("<f4").tobytes()
            header["tensors"].append({"name": entry["name"], "kind": kind, "shape": entry["shape"],
                                      "offset": offset, "nbytes": len(data)})
            blobs.append(data)
            offset += len(data)
    header["rng_state"] = np.random.default_rng(77).bit_generator.state
    text = json.dumps(header).encode()
    return blob[:8] + struct.pack("<I", len(text)) + text + payload + b"".join(blobs)


def test_checkpoint_with_optimizer_sections_still_loads(tmp_path):
    spec = parse_topology(TINY_DSL, name="tiny")
    model = build_model(spec, seed=3, dtype=np.float32)
    model.buffers()[0][1][:] = 0.25
    x = Tensor(np.random.default_rng(1).normal(size=(2, 16, 16, 1)).astype(np.float32))
    before = model.forward(x, train=False).data

    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(model, epoch=2, val_miou=0.3), path)
    current = load_checkpoint(path)
    legacy_blob = _with_optimizer_sections(path.read_bytes())
    legacy_path = tmp_path / "legacy.ckpt"
    legacy_path.write_bytes(legacy_blob)
    legacy = load_checkpoint(legacy_path)
    assert (legacy.epoch, legacy.val_miou) == (current.epoch, current.val_miou)
    for kept, read in ((current.params, legacy.params), (current.buffers, legacy.buffers)):
        assert list(read) == list(kept) and all(np.array_equal(read[n], kept[n]) for n in kept)
    assert np.array_equal(restore_model(legacy).forward(x, train=False).data, before)

    hlen, header = _header(legacy_blob)
    header["tensors"][-1]["kind"] = "bogus"
    text = json.dumps(header).encode()
    legacy_path.write_bytes(legacy_blob[:8] + struct.pack("<I", len(text)) + text + legacy_blob[12 + hlen :])
    with pytest.raises(FormatError, match="bogus"):
        load_checkpoint(legacy_path)


def test_a_model_restored_from_optimizer_sections_holds_only_the_kept_tensors(tmp_path):
    model = build_model(scale_widths(preset("danet-fcn2"), 0.2), seed=0, dtype=np.float32)
    path = tmp_path / "legacy.ckpt"
    save_checkpoint(checkpoint_from_model(model), path)
    path.write_bytes(_with_optimizer_sections(path.read_bytes()))  # twice the parameters' bytes more
    kept = 4 * (count_parameters(model.spec) + sum(a.size for _, a in model.buffers()))

    def restore():
        restored = restore_model(load_checkpoint(path))  # noqa: F841 (the Checkpoint is gone, the model is not)
        return tracemalloc.get_traced_memory()[0]

    held, _ = _traced_peak(restore)
    assert held <= kept + (256 << 10)


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, failing_writes):
    spec = parse_topology(TINY_DSL, name="tiny")
    path = tmp_path / "checkpoint.ckpt"
    save_checkpoint(checkpoint_from_model(build_model(spec, seed=0, dtype=np.float32)), path)
    previous = path.read_bytes()

    failing_writes(4)  # magic, header length and header are out
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(checkpoint_from_model(build_model(spec, seed=1, dtype=np.float32)), path)
    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.ckpt"]


def _corrupt(case, blob):
    """A good checkpoint with one part damaged."""
    hlen = int(np.frombuffer(blob[8:12], dtype="<u4")[0])
    rest = blob[12 + hlen :]
    if case == "shorter than magic + length":
        return blob[:10]
    if case == "header truncated mid-JSON":
        return blob[: 12 + hlen // 2]
    if case == "header length too small":
        return blob[:8] + struct.pack("<I", hlen // 2) + blob[12:]
    if case == "header length into the payload":
        return blob[:8] + struct.pack("<I", hlen + 8) + blob[12:]
    if case == "non-UTF-8 header":
        return blob[:12] + b"\xff" * hlen + rest
    if case == "missing header key":
        header = json.loads(blob[12 : 12 + hlen])
        del header["epoch"]
        text = json.dumps(header).encode()
        return blob[:8] + struct.pack("<I", len(text)) + text + rest
    return blob[:-1]  # truncated payload


@pytest.mark.parametrize("case, error", [
    ("shorter than magic + length", CorruptionError),
    ("header truncated mid-JSON", CorruptionError),
    ("header length too small", FormatError),
    ("header length into the payload", FormatError),
    ("non-UTF-8 header", FormatError),
    ("missing header key", FormatError),
    ("truncated payload", CorruptionError),
])
def test_corrupt_checkpoint_raises_format_error(tmp_path, case, error):
    model = build_model(parse_topology(TINY_DSL, name="tiny"), seed=0, dtype=np.float32)
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(model), path)
    path.write_bytes(_corrupt(case, path.read_bytes()))
    with pytest.raises(error):
        load_checkpoint(path)


def test_checkpoint_with_bytes_after_its_last_tensor_is_corruption(tmp_path):
    model = build_model(parse_topology(TINY_DSL, name="tiny"), seed=0, dtype=np.float32)
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(model), path)
    path.write_bytes(path.read_bytes() + bytes(290))
    with pytest.raises(CorruptionError, match="290 bytes after the last tensor"):
        load_checkpoint(path)


@pytest.mark.parametrize("case", [
    "parameter of the wrong size", "buffer of the wrong size", "missing buffer", "unparsable topology",
    "parameter of the right size but the wrong shape", "extra buffer", "two tensors swapped in order",
    "tensor name that is not a string",
])
def test_checkpoint_that_does_not_fit_its_topology_is_format_error(case):
    ckpt = checkpoint_from_model(build_model(parse_topology(TINY_DSL, name="tiny"), seed=0, dtype=np.float32))
    if case == "parameter of the wrong size":
        ckpt.params["layer0.conv.kernel"] = ckpt.params["layer0.conv.kernel"][:1]
    elif case == "buffer of the wrong size":
        ckpt.buffers["layer0.bn.running_mean"] = ckpt.buffers["layer0.bn.running_mean"][:-1]
    elif case == "missing buffer":
        del ckpt.buffers["layer0.bn.running_mean"]
    elif case == "parameter of the right size but the wrong shape":
        kernel = ckpt.params["layer0.conv.kernel"]  # 3 x 3 x 1 x 6
        ckpt.params["layer0.conv.kernel"] = np.ascontiguousarray(kernel.transpose(0, 1, 3, 2))
    elif case == "extra buffer":
        ckpt.buffers["layer9.bn.running_mean"] = np.zeros(6, dtype=np.float32)
    elif case == "two tensors swapped in order":
        names = list(ckpt.params)
        names[1], names[2] = names[2], names[1]  # layer0.conv.bias and layer0.bn.gamma: both 6 floats
        ckpt.params = {name: ckpt.params[name] for name in names}
    elif case == "tensor name that is not a string":
        ckpt.params = {7 if name == "layer0.conv.bias" else name: a for name, a in ckpt.params.items()}
    else:
        ckpt.topology_text = "c3 s2 6\nfrobnicate 12\n"
    with pytest.raises(FormatError):
        restore_model(ckpt)


# ------------------------------------------------------------- training loop

def _val_pairs(vol, masks, indices):
    return [(vol.slice(i), masks.slice(i)) for i in indices]


def test_validation_miou_is_the_test_protocol_mmiou():
    vol, masks, _ = tiny_tiles(slices=4)
    model = build_model(parse_topology(TINY_DSL, name="tiny"), seed=3, dtype=np.float32)
    indices = [0, 2, 3]
    got = train_mod._validation_miou(model, _val_pairs(vol, masks, indices), 12, 8)  # covers 24 x 32 of 32 x 32
    assert got == evaluate_testset(model, vol, masks, indices, 12, 8).mmiou


def test_epoch0_loss_bitwise_deterministic():
    vol, masks, tiles = tiny_tiles()
    spec = parse_topology(TINY_DSL, name="tiny")
    losses = []
    for _ in range(2):
        model = build_model(spec, seed=11, dtype=np.float64)
        _, log = train(model, tiles, _val_pairs(vol, masks, [2]),
                       TrainConfig(batch_size=4, max_epochs=1, seed=5),
                       OptimizerConfig())
        losses.append(log[0]["loss"])
    assert losses[0] == losses[1]


def test_best_checkpoint_argmax_with_earliest_tie(monkeypatch):
    vol, masks, tiles = tiny_tiles()
    spec = parse_topology(TINY_DSL, name="tiny")
    model = build_model(spec, seed=0, dtype=np.float32)
    sequence = iter([0.5, 0.9, 0.7])
    monkeypatch.setattr(train_mod, "_validation_miou", lambda *a, **k: next(sequence))
    best, log = train(model, tiles, _val_pairs(vol, masks, [2]),
                      TrainConfig(batch_size=8, max_epochs=3, seed=1),
                      OptimizerConfig())
    assert best.epoch == 1
    assert best.val_miou == 0.9
    assert [row["val_miou"] for row in log] == [0.5, 0.9, 0.7]


def test_bn_running_stats_update_in_train_frozen_in_validation():
    vol, masks, tiles = tiny_tiles()
    spec = parse_topology(TINY_DSL, name="tiny")
    model = build_model(spec, seed=2, dtype=np.float64)

    before = [arr.copy() for _, arr in model.buffers()]
    x = Tensor(tiles.images[:4][..., None])
    model.forward(x, train=True)
    after_train = [arr.copy() for _, arr in model.buffers()]
    assert any(not np.array_equal(a, b) for a, b in zip(before, after_train))

    train_mod._validation_miou(model, _val_pairs(vol, masks, [0]), tiles.tile_h, tiles.tile_w)
    after_val = [arr.copy() for _, arr in model.buffers()]
    for a, b in zip(after_train, after_val):
        np.testing.assert_array_equal(a, b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_preserves_checkpoint(tmp_path):
    vol, masks, tiles = tiny_tiles()
    spec = parse_topology(TINY_DSL, name="tiny")
    model = build_model(spec, seed=4, dtype=np.float64)
    # poison one kernel after epoch 0 via a huge lr jump
    cfg = TrainConfig(batch_size=8, max_epochs=4, seed=0,
                      lr_schedule=((0, 1e-3), (1, 1e300)))
    path = tmp_path / "checkpoint.ckpt"
    with pytest.raises(DivergenceError):
        train(model, tiles, _val_pairs(vol, masks, [2]), cfg, OptimizerConfig(), checkpoint_path=path)
    ckpt = load_checkpoint(path)
    assert ckpt.epoch == 0  # the completed epoch
    assert not np.isnan(ckpt.val_miou)


def test_partial_final_batch_kept(monkeypatch):
    vol, masks, tiles = tiny_tiles()  # 27 tiles
    steps = []
    original = RMSProp.step
    monkeypatch.setattr(RMSProp, "step", lambda self, lr: (steps.append(lr), original(self, lr))[1])
    spec = parse_topology(TINY_DSL, name="tiny")
    model = build_model(spec, seed=8, dtype=np.float32)
    train(model, tiles, _val_pairs(vol, masks, [2]),
          TrainConfig(batch_size=6, max_epochs=1, seed=0), OptimizerConfig())
    assert len(tiles) == 27
    assert len(steps) == 5  # 4 full batches of 6 plus the final batch of 3


def test_empty_tileset_rejected():
    vol, masks, tiles = tiny_tiles()
    empty = type(tiles)(images=tiles.images[:0], masks=tiles.masks[:0],
                        provenance=tiles.provenance[:0], tile_h=tiles.tile_h, tile_w=tiles.tile_w)
    spec = parse_topology(TINY_DSL, name="tiny")
    model = build_model(spec, seed=0)
    with pytest.raises(ConfigError):
        train(model, empty, [(np.zeros((16, 16)), np.zeros((16, 16), dtype=np.uint8))],
              TrainConfig(max_epochs=1), OptimizerConfig())


def test_log_csv_format(tmp_path):
    vol, masks, tiles = tiny_tiles()
    spec = parse_topology(TINY_DSL, name="tiny")
    model = build_model(spec, seed=6, dtype=np.float32)
    path = tmp_path / "log.csv"
    train(model, tiles, _val_pairs(vol, masks, [2]),
          TrainConfig(batch_size=8, max_epochs=2, seed=3), OptimizerConfig(),
          log_path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,val_miou,lr,seconds"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[3]) == 0.01


def _nan_loss_in_epoch(monkeypatch, diverging_epoch):
    """Make the loss non-finite in one epoch; with one batch per epoch, loss
    call k is epoch k."""
    calls = iter(range(100))
    real_loss = train_mod.softmax_cross_entropy

    def loss_fn(logits, labels):
        loss = real_loss(logits, labels)
        if next(calls) == diverging_epoch:
            loss.data = np.full_like(loss.data, np.nan)
        return loss

    monkeypatch.setattr(train_mod, "softmax_cross_entropy", loss_fn)


def test_divergence_leaves_the_log_rows_of_the_finished_epochs(tmp_path, monkeypatch):
    vol, masks, tiles = tiny_tiles()
    model = build_model(parse_topology(TINY_DSL, name="tiny"), seed=6, dtype=np.float32)
    _nan_loss_in_epoch(monkeypatch, 1)
    path = tmp_path / "log.csv"
    with pytest.raises(DivergenceError, match="epoch 1"):
        train(model, tiles, _val_pairs(vol, masks, [2]),
              TrainConfig(batch_size=len(tiles), max_epochs=3, seed=3), OptimizerConfig(),
              log_path=path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "epoch,loss,val_miou,lr,seconds"
    assert lines[1].startswith("0,")


@pytest.mark.parametrize("diverging_epoch", [0, 1, 2])
def test_divergence_before_the_first_validation_keeps_the_last_epoch(tmp_path, monkeypatch, diverging_epoch):
    vol, masks, tiles = tiny_tiles()
    model = build_model(parse_topology(TINY_DSL, name="tiny"), seed=6, dtype=np.float32)
    path = tmp_path / "checkpoint.ckpt"
    earlier = checkpoint_from_model(build_model(parse_topology(TINY_DSL, name="tiny"), seed=7), epoch=9, val_miou=0.5)
    save_checkpoint(earlier, path)  # a file from an earlier run
    before = path.read_bytes()
    _nan_loss_in_epoch(monkeypatch, diverging_epoch)
    with pytest.raises(DivergenceError):
        train(model, tiles, _val_pairs(vol, masks, [2]),
              TrainConfig(batch_size=len(tiles), max_epochs=4, eval_every=3, seed=3), OptimizerConfig(),
              checkpoint_path=path)
    if diverging_epoch == 0:
        assert path.read_bytes() == before  # no epoch finished, so nothing was written
        return
    ckpt = load_checkpoint(path)
    assert ckpt.epoch == diverging_epoch - 1 and np.isnan(ckpt.val_miou)
    # the non-finite loss stops the epoch before its only step: the model is the checkpoint's
    for name, t, _ in model.parameters():
        assert np.array_equal(ckpt.params[name], t.data)


def test_interrupted_run_keeps_the_best_validated_epoch_on_disk(tmp_path, monkeypatch):
    vol, masks, tiles = tiny_tiles()
    model = build_model(parse_topology(TINY_DSL, name="tiny"), seed=6, dtype=np.float32)
    scores = iter([0.5, 0.9, 0.7])
    monkeypatch.setattr(train_mod, "_validation_miou", lambda *a, **k: next(scores))
    calls = iter(range(100))
    real_loss = train_mod.softmax_cross_entropy

    def loss_fn(logits, labels):  # one batch per epoch, so call k is epoch k
        if next(calls) == 3:
            raise KeyboardInterrupt
        return real_loss(logits, labels)

    monkeypatch.setattr(train_mod, "softmax_cross_entropy", loss_fn)
    path = tmp_path / "checkpoint.ckpt"
    with pytest.raises(KeyboardInterrupt):
        train(model, tiles, _val_pairs(vol, masks, [2]),
              TrainConfig(batch_size=len(tiles), max_epochs=10, seed=3), OptimizerConfig(),
              checkpoint_path=path)
    ckpt = load_checkpoint(path)
    assert (ckpt.epoch, ckpt.val_miou) == (1, 0.9)


def test_training_copies_the_model_only_when_it_improves(monkeypatch):
    vol, masks, tiles = tiny_tiles()
    model = build_model(parse_topology(TINY_DSL, name="tiny"), seed=0, dtype=np.float32)
    scores = iter([0.5, 0.4, 0.6, 0.6, 0.3])
    monkeypatch.setattr(train_mod, "_validation_miou", lambda *a, **k: next(scores))
    copied = []
    real_copy = train_mod.checkpoint_from_model

    def counting_copy(*args, **kwargs):
        ckpt = real_copy(*args, **kwargs)
        copied.append(ckpt.epoch)
        return ckpt

    monkeypatch.setattr(train_mod, "checkpoint_from_model", counting_copy)
    best, _ = train(model, tiles, _val_pairs(vol, masks, [2]),
                    TrainConfig(batch_size=len(tiles), max_epochs=5, seed=1), OptimizerConfig())
    assert copied == [0, 2]
    assert (best.epoch, best.val_miou) == (2, 0.6)
