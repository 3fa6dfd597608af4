"""The forecasting network: spatio-temporal patch tokenization, a pre-norm
transformer encoder with joint attention over all patch/time tokens, and a
reconstruction head with a 1x1 channel-fusion convolution. The head's output
is the change since the latest observation: the forecast adds it to the last
input frame's displacement at every horizon.

The parameters are one flat vector in `param_shapes` order: the vector that
`init_params` draws, AdamW updates and `params.mmst` stores. `param_views` is
the one map from it to the named tensors the forward pass reads.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from . import schema
from .numerics import Tensor


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    t_in: int = 10
    t_out: int = 10
    c_in: int = 6
    grid_size: int = 64          # H == W of the working grid
    patch_size: int = 8
    embed_dim: int = 64
    n_layers: int = 16
    n_heads: int = 4
    ffn_hidden: int = 256
    dropout: float = 0.0

    def __post_init__(self):
        for name in ("t_in", "t_out", "c_in", "grid_size", "patch_size", "embed_dim",
                     "n_layers", "n_heads", "ffn_hidden"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.grid_size % self.patch_size:
            raise ModelError(f"grid size {self.grid_size} not divisible by patch size {self.patch_size}")
        if self.embed_dim % self.n_heads:
            raise ModelError(f"embed dim {self.embed_dim} not divisible by {self.n_heads} heads")
        if self.t_out > self.t_in:
            raise ModelError(
                f"t_out={self.t_out} > t_in={self.t_in}: the head selects output tokens "
                "from the first t_out input time slices"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def patches_per_side(self) -> int:
        return self.grid_size // self.patch_size

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.c_in

    @property
    def n_tokens(self) -> int:
        # one token per patch per input time step
        return self.t_in * self.patches_per_side * self.patches_per_side

    @property
    def n_out_tokens(self) -> int:
        return self.t_out * self.patches_per_side * self.patches_per_side

    @classmethod
    def from_json(cls, d: dict) -> "ModelConfig":
        return schema.from_json(cls, d, ModelError, "model config")


def param_shapes(config: ModelConfig) -> "OrderedDict[str, tuple[int, ...]]":
    """Every learnable tensor, in a fixed order."""
    d, f = config.embed_dim, config.ffn_hidden
    shapes: OrderedDict[str, tuple[int, ...]] = OrderedDict()
    shapes["patch_proj.w"] = (config.patch_dim, d)
    shapes["patch_proj.b"] = (d,)
    shapes["pos_embed"] = (config.n_tokens, d)
    for i in range(config.n_layers):
        p = f"layer{i}."
        shapes[p + "ln1.gamma"] = (d,)
        shapes[p + "ln1.beta"] = (d,)
        for proj in ("q", "k", "v", "o"):
            shapes[p + f"attn.w{proj}"] = (d, d)
            shapes[p + f"attn.b{proj}"] = (d,)
        shapes[p + "ln2.gamma"] = (d,)
        shapes[p + "ln2.beta"] = (d,)
        shapes[p + "ffn.w1"] = (d, f)
        shapes[p + "ffn.b1"] = (f,)
        shapes[p + "ffn.w2"] = (f, d)
        shapes[p + "ffn.b2"] = (d,)
    shapes["head_proj.w"] = (d, config.patch_dim)
    shapes["head_proj.b"] = (config.patch_dim,)
    shapes["fusion.w"] = (config.c_in, 1)
    shapes["fusion.b"] = (1,)
    return shapes


def param_views(config: ModelConfig, flat: np.ndarray,
                source="parameter vector") -> "OrderedDict[str, Tensor]":
    """The named parameters as read-only views of `flat`, one vector holding
    every parameter in `param_shapes` order. `source` names the vector in the
    error raised when its shape does not fit the config."""
    shapes = param_shapes(config)
    sizes = [math.prod(shape) for shape in shapes.values()]
    expected = (sum(sizes),)
    if flat.shape != expected:
        raise ModelError(f"{source} has shape {flat.shape}; the manifest's config needs {expected}")
    params: OrderedDict[str, Tensor] = OrderedDict()
    start = 0
    for (name, shape), size in zip(shapes.items(), sizes):
        params[name] = Tensor._wrap(flat[start:start + size].reshape(shape))
        start += size
    return params


def non_finite_param(config: ModelConfig, flat: np.ndarray) -> str | None:
    """The first parameter, in `param_shapes` order, whose slice of `flat`
    holds NaN or ±inf; None when every entry is finite."""
    if np.isfinite(flat).all():
        return None
    return next(name for name, p in param_views(config, flat).items()
                if not np.isfinite(p.data).all())


def flatten(arrays) -> np.ndarray:
    """One vector of `arrays`, each raveled in turn: given the parameters or
    their gradients in `param_shapes` order, the layout `param_views` reads."""
    return np.concatenate([np.ravel(a) for a in arrays])


def init_params(config: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> "OrderedDict[str, Tensor]":
    """Standard transformer init: weights and pos_embed ~ N(0, 0.02), biases 0,
    LayerNorm gamma 1 / beta 0. The fusion conv mixes only `c_in` channels, so
    it takes the fan-in scale N(0, 1/sqrt(c_in)) instead; at 0.02 it would
    damp the forecast's learned change by ~20x and stall its training.

    Each weight is drawn from `rng` in `param_shapes` order, in float64 and
    rounded to `dtype`; the result is `param_views` of one vector."""
    parts = []
    for name, shape in param_shapes(config).items():
        if name.endswith(".gamma"):
            arr = np.ones(shape, dtype=dtype)
        elif name.endswith((".beta", ".b", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo")):
            arr = np.zeros(shape, dtype=dtype)
        else:
            std = 1.0 / math.sqrt(config.c_in) if name == "fusion.w" else 0.02
            arr = rng.normal(0.0, std, size=shape).astype(dtype)
        parts.append(arr)
    return param_views(config, flatten(parts))


def _check_params(params, config: ModelConfig) -> None:
    for name, shape in param_shapes(config).items():
        if name not in params:
            raise ModelError(f"missing parameter {name}")
        if params[name].shape != shape:
            raise ModelError(f"parameter {name} has shape {params[name].shape}, expected {shape}")


# ---------------------------------------------------------------------------
# Forward pieces
# ---------------------------------------------------------------------------


def tokenize(x: Tensor, params, config: ModelConfig) -> Tensor:
    """(B, T_in, C, H, W) -> token sequence (B, N, D).

    Each non-overlapping P x P patch is flattened channel-major, linearly
    projected to D (one projection shared across all times and positions),
    ordered time-major then row-major over patches, and offset by the
    learnable positional table.
    """
    b = x.shape[0]
    t, c, hh, ww = config.t_in, config.c_in, config.grid_size, config.grid_size
    if x.shape != (b, t, c, hh, ww):
        raise ModelError(f"input shape {x.shape} does not match config {(b, t, c, hh, ww)}")
    p, g = config.patch_size, config.patches_per_side
    x = nm.reshape(x, (b, t, c, g, p, g, p))
    x = nm.transpose(x, (0, 1, 3, 5, 2, 4, 6))            # (B, T, gy, gx, C, P, P)
    patches = nm.reshape(x, (b, config.n_tokens, config.patch_dim))
    tokens = nm.broadcast_add(nm.matmul(patches, params["patch_proj.w"]), params["patch_proj.b"])
    return nm.broadcast_add(tokens, params["pos_embed"])


def multi_head_attention(z: Tensor, params, prefix: str, config: ModelConfig, attn_sink=None) -> Tensor:
    """Joint self-attention over all N patch-time tokens, no masking: the
    query, key, value and output projections around one `nm.attention` node
    of `n_heads` heads. `attn_sink`, when given, receives each layer's full
    (B, h, N, N) attention weights."""
    def project(name, x):
        return nm.broadcast_add(nm.matmul(x, params[prefix + f"attn.w{name}"]),
                                params[prefix + f"attn.b{name}"])

    q, k, v = (project(name, z) for name in "qkv")
    return project("o", nm.attention(q, k, v, config.n_heads, sink=attn_sink))


def _dropout(z: Tensor, rate: float, rng) -> Tensor:
    if rate <= 0.0 or rng is None:
        return z
    keep = 1.0 - rate
    mask = Tensor._wrap((rng.random(z.shape) < keep).astype(z.dtype) / z.dtype.type(keep))
    return nm.mul(z, mask)


def encoder_layer(z: Tensor, params, layer_index: int, config: ModelConfig,
                  attn_sink=None, dropout_rng=None) -> Tensor:
    """Pre-norm block: normalize, attend, residual; normalize, FFN, residual."""
    p = f"layer{layer_index}."
    a = nm.layer_norm(z, params[p + "ln1.gamma"], params[p + "ln1.beta"])
    attn = multi_head_attention(a, params, p, config, attn_sink)
    z = nm.add(_dropout(attn, config.dropout, dropout_rng), z)
    h = nm.layer_norm(z, params[p + "ln2.gamma"], params[p + "ln2.beta"])
    h = nm.gelu(nm.broadcast_add(nm.matmul(h, params[p + "ffn.w1"]), params[p + "ffn.b1"]))
    h = nm.broadcast_add(nm.matmul(_dropout(h, config.dropout, dropout_rng), params[p + "ffn.w2"]),
                         params[p + "ffn.b2"])
    return nm.add(_dropout(h, config.dropout, dropout_rng), z)


def encode(tokens: Tensor, params, config: ModelConfig, attn_sink=None, dropout_rng=None) -> Tensor:
    z = tokens
    for i in range(config.n_layers):
        z = encoder_layer(z, params, i, config, attn_sink, dropout_rng)
    return z


def reconstruct_maps(z: Tensor, params, config: ModelConfig) -> Tensor:
    """Select the leading output tokens, project back to patch pixels, and
    reassemble (B, T_out, C, H, W); the exact inverse of the patch flattening."""
    b = z.shape[0]
    p, g = config.patch_size, config.patches_per_side
    z = nm.slice_axis(z, 1, 0, config.n_out_tokens)
    maps = nm.broadcast_add(nm.matmul(z, params["head_proj.w"]), params["head_proj.b"])
    maps = nm.reshape(maps, (b, config.t_out, g, g, config.c_in, p, p))
    maps = nm.transpose(maps, (0, 1, 4, 2, 5, 3, 6))       # (B, T_out, C, gy, P, gx, P)
    return nm.reshape(maps, (b, config.t_out, config.c_in, config.grid_size, config.grid_size))


def forward(x: Tensor, params, config: ModelConfig, attn_sink=None, dropout_rng=None) -> Tensor:
    """(B, T_in, C_in, H, W) -> displacement forecast (B, T_out, 1, H, W).

    The forecast is anchored on the latest observation: every horizon is the
    last input frame's normalized displacement plus the fused head output, so
    the network learns the change since that frame. With `fusion.w` and
    `fusion.b` at zero it returns that frame at every horizon (persistence).
    """
    _check_params(params, config)
    tokens = tokenize(x, params, config)
    tokens = _dropout(tokens, config.dropout, dropout_rng)
    z = encode(tokens, params, config, attn_sink, dropout_rng)
    maps = reconstruct_maps(z, params, config)
    change = nm.conv1x1(maps, params["fusion.w"], params["fusion.b"])
    last = nm.slice_axis(x, 1, config.t_in - 1, config.t_in)   # (B, 1, C_in, H, W)
    return nm.broadcast_add(change, nm.slice_axis(last, 2, 0, 1))  # channel 0: displacement


# ---------------------------------------------------------------------------
# Checkpoints: a JSON manifest plus every parameter in one flat tensor file
# ---------------------------------------------------------------------------


def save_checkpoint(directory, config: ModelConfig, params, train_step: int = 0,
                    val_loss: float | None = None) -> None:
    """Write `params.mmst`, every parameter flattened in `param_shapes` order,
    with `manifest.json` as its JSON, so a save that stops part-way leaves a
    directory `load_checkpoint` refuses. Parameters holding NaN or ±inf are
    refused before the directory is touched."""
    _check_params(params, config)
    flat = flatten(params[name].data for name in param_shapes(config))
    bad = non_finite_param(config, flat)
    if bad is not None:
        raise ModelError(f"refusing to save checkpoint {directory}: "
                         f"parameter {bad} holds a non-finite value")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"config": asdict(config), "train_step": train_step, "validation_loss": val_loss}
    nm.save_tensor_and_json(directory / "params.mmst", Tensor._wrap(flat),
                            directory / "manifest.json", manifest)


def load_checkpoint(directory) -> tuple[ModelConfig, "OrderedDict[str, Tensor]", dict]:
    """The config, the parameters as `param_views` of the one flat
    `params.mmst` vector, and the manifest. The views look into a read-only
    map of the file, so a write into loaded parameters raises. A vector
    holding NaN or ±inf is refused, naming the first parameter that does."""
    directory = Path(directory)
    path = directory / "manifest.json"
    manifest = nm.load_json(path, "checkpoint manifest")
    if not isinstance(manifest.get("config"), dict):
        raise ModelError(f"checkpoint manifest {path} must hold a config object")
    config = ModelConfig.from_json(manifest["config"])
    path = directory / "params.mmst"
    flat = nm.load_tensor(path).data
    params = param_views(config, flat, path)
    bad = non_finite_param(config, flat)
    if bad is not None:
        raise ModelError(f"checkpoint {path} holds a non-finite value in parameter {bad}")
    return config, params, manifest
