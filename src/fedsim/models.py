"""Model descriptions, width pruning, initialisation and submodel extraction.

A model is a flat sequence of layer descriptions (:class:`LayerSpec`) plus an
input shape and a class count.  Widths (dense units / conv channels) are the
only thing that varies between the differently-sized models handed to slow
clients: ``build_pruned_spec`` rescales every hidden width by a pruning rate
while the output layer always keeps ``class_count`` units.

A model's parameters (:class:`ModelParams`) are one contiguous float64 vector
plus its :class:`ParamLayout`, which places every named tensor in the vector
as a C-ordered run.  ``tensors`` is a read-only mapping of views: a tensor can
be written in place, and the vector sees it, but cannot be rebound.

A spec checks itself when it is built, from code or from a checkpoint
header: every value, and that its layers fit together and end in the class
dense layer.  The one walk over the layers that checks the chain also builds
the spec's layout (``spec.layout``), which names the tensors
``layer{i}.weight`` / ``layer{i}.bias`` and is the only record of their
shapes.  Because a pruned model keeps the *leading* units/channels of every
hidden layer, each of its tensors is a prefix block of the matching
full-width tensor: :func:`overlap_map` checks that a small model fits inside
a large one, and :func:`extract_overlap` copies those blocks into the small
spec's layout.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, replace
from types import MappingProxyType

import numpy as np

from fedsim.errors import DimensionError

LAYER_KINDS = ("dense", "conv", "relu", "maxpool", "flatten")

# The LayerSpec fields each kind reads; every other field keeps its default
_FIELDS_READ = {
    "dense": ("width", "base_width"),
    "conv": ("width", "base_width", "kernel", "stride", "padding"),
    "relu": (),
    "maxpool": ("kernel", "stride"),
    "flatten": (),
}


def _check_count(value, what: str, least: int = 1) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise DimensionError(f"{what} must be an integer of at least {least}, got {value!r}")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a model.

    ``width`` is the resolved output size (dense units or conv channels) and
    is only meaningful for ``dense`` and ``conv`` layers.  ``base_width``
    remembers the width of the corresponding layer in the unpruned model so
    pruning is always computed relative to the full-width reference.  Every
    size is a Python ``int`` (never a ``bool``): widths and kernel and stride
    at least 1, padding at least 0.  A field the kind never reads keeps its
    default (a maxpool pools unpadded, and only dense and conv layers have a
    width), so a spec, and the checkpoint header written from it, says only
    what the model does.
    """

    kind: str
    width: int | None = None
    base_width: int | None = None
    kernel: int = 3
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise DimensionError(f"unknown layer kind {self.kind!r}")
        for key in ("width", "base_width"):
            if getattr(self, key) is not None:
                _check_count(getattr(self, key), key)
        for key, least in (("kernel", 1), ("stride", 1), ("padding", 0)):
            _check_count(getattr(self, key), key, least)
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name not in _FIELDS_READ[self.kind] and value != f.default:
                raise DimensionError(f"{f.name} does not apply to a {self.kind} layer, got {value!r}")


@dataclass(frozen=True)
class ModelSpec:
    """A full model: input shape, layer sequence, class count, pruning rate.

    Building a spec checks it: ``input_shape`` is a tuple of integers of at
    least 1, ``class_count`` an integer of at least 1, ``pruning_rate`` a
    number in (0, 1] (kept as a float), and the layers must fit together and
    end in a dense layer of ``class_count`` units.  The walk over the layers
    that checks the chain, and names the layer where it breaks, also builds
    ``layout``.
    """

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    class_count: int
    pruning_rate: float = 1.0
    layout: "ParamLayout" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.input_shape, tuple):
            raise DimensionError(f"input_shape must be a tuple of integers, got {self.input_shape!r}")
        for dim in self.input_shape:
            _check_count(dim, "an input_shape entry")
        _check_count(self.class_count, "class_count")
        rate = self.pruning_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0.0 < rate <= 1.0:
            raise DimensionError(f"pruning_rate must be a number in (0, 1], got {rate!r}")
        object.__setattr__(self, "pruning_rate", float(rate))

        shapes: dict[str, tuple[int, ...]] = {}
        slots: list[tuple[str, str] | None] = []
        cur = self.input_shape  # each layer's input, then its output
        widest = math.prod(cur)
        for i, layer in enumerate(self.layers):
            name, kind = f"layer{i}({layer.kind})", layer.kind
            if kind == "dense" and len(cur) != 1:
                raise DimensionError(f"{name}: dense layer needs a flat input, got shape {cur}")
            if kind in ("conv", "maxpool") and len(cur) != 3:
                raise DimensionError(f"{name}: {kind} needs a (channels, h, w) input, got shape {cur}")
            if kind in ("dense", "conv"):
                if layer.width is None:
                    raise DimensionError(f"{name}: {kind} layer has no width")
                weight, bias = f"layer{i}.weight", f"layer{i}.bias"
                kernel = (layer.kernel, layer.kernel) if kind == "conv" else ()
                shapes[weight], shapes[bias] = (layer.width, cur[0], *kernel), (layer.width,)
                slots.append((weight, bias))
            else:
                slots.append(None)
            if kind in ("conv", "maxpool"):
                oh, ow = ((d + 2 * layer.padding - layer.kernel) // layer.stride + 1 for d in cur[1:])
                if oh < 1 or ow < 1:
                    raise DimensionError(f"{name}: window {layer.kernel} does not fit input {cur}")
                cur = (layer.width if kind == "conv" else cur[0], oh, ow)
            elif kind == "dense":
                cur = (layer.width,)
            elif kind == "flatten":
                cur = (math.prod(cur),)
            widest = max(widest, math.prod(cur))
        if not self.layers or self.layers[-1].kind != "dense" or cur != (self.class_count,):
            raise DimensionError(
                f"model must end in a dense layer with {self.class_count} units, "
                f"got output shape {cur}"
            )
        object.__setattr__(self, "layout", ParamLayout(shapes, tuple(slots), self.input_shape, widest))


class ParamLayout:
    """Named tensors as consecutive C-ordered runs of one flat float64 vector.

    ``spans`` maps each tensor name, in order, to its ``(start, stop, shape)``
    in a vector of length ``size``.  A spec's layout also holds what every
    training step needs of the spec: ``slots[i]``, the weight and bias names
    of layer ``i`` (``None`` for a layer without parameters), ``first``, the
    first layer that has them, the ``input_shape``, and ``widest``, the
    largest per-sample element count of the input and of every layer's
    output.  A layout built from shapes alone has no slots.
    """

    def __init__(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        slots: tuple = (),
        input_shape: tuple = (),
        widest: int = 0,
    ):
        self.spans: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        stop = 0
        for name, shape in shapes.items():
            start, stop = stop, stop + math.prod(shape)
            self.spans[name] = (start, stop, shape)
        self.size = stop
        self.slots = slots
        self.first = next((i for i, slot in enumerate(slots) if slot is not None), 0)
        self.input_shape = input_shape
        self.widest = widest

    def check(self, other: "ParamLayout") -> None:
        """Raise :class:`DimensionError` unless ``other`` holds the same tensors,
        of the same shapes, in the same order; it names the first that differs."""

        if other is self or other.spans == self.spans:
            return
        for name, (_, _, shape) in self.spans.items():
            if name not in other.spans:
                raise DimensionError(f"missing parameter tensor {name!r}")
            got = other.spans[name][2]
            if got != shape:
                raise DimensionError(f"{name}: expected shape {shape}, got {got}")
        extra = set(other.spans) - set(self.spans)
        if extra:
            raise DimensionError(f"unexpected parameter tensors: {sorted(extra)}")
        raise DimensionError(f"parameter tensors are not in the order {list(self.spans)}")


class ModelParams:
    """One model's parameters: a flat float64 vector and named views of it.

    ``flat`` is laid out by ``layout``.  ``tensors`` maps each name, in layout
    order, to a view of its run; the mapping is read-only, so a tensor is
    written in place and never rebound away from the vector.
    """

    def __init__(self, layout: ParamLayout, flat: np.ndarray | None = None):
        """Views of ``flat``, a float64 vector of ``layout.size`` entries (zeros when omitted)."""

        self.layout = layout
        self.flat = flat = np.zeros(layout.size) if flat is None else flat
        self.tensors = MappingProxyType(
            {name: flat[start:stop].reshape(shape) for name, (start, stop, shape) in layout.spans.items()}
        )

    @classmethod
    def from_tensors(cls, tensors: Mapping[str, np.ndarray]) -> "ModelParams":
        """A new vector holding a float64 copy of each named array, in mapping order."""

        arrays = {name: np.asarray(t, dtype=np.float64) for name, t in tensors.items()}
        params = cls(ParamLayout({name: a.shape for name, a in arrays.items()}))
        for name, a in arrays.items():
            params.tensors[name][...] = a
        return params

    def copy(self) -> "ModelParams":
        return ModelParams(self.layout, self.flat.copy())


def pruned_width(base_width: int, rate: float) -> int:
    """Width of a pruned layer: ``max(1, round(rate * base_width))``.

    Rounding is half-up so e.g. 0.5 * 5 -> 3, matching the convention that a
    pruning rate never removes more than its share of units.
    """

    return max(1, int(math.floor(rate * base_width + 0.5)))


def build_pruned_spec(base: ModelSpec, rate: float) -> ModelSpec:
    """A copy of ``base`` with every hidden width scaled by ``rate``.

    ``rate`` must lie in (0, 1]; the new spec checks it when built.  Widths
    are computed from each layer's ``base_width`` (the unpruned reference),
    so re-pruning an already pruned spec with rate 1.0 restores the full
    model.  The output layer is never pruned: it always keeps
    ``class_count`` units.
    """

    out_idx = len(base.layers) - 1  # a spec checks itself when built: its dense output is last
    layers = []
    for i, layer in enumerate(base.layers):
        if layer.kind in ("dense", "conv") and i != out_idx:
            base_w = layer.base_width if layer.base_width is not None else layer.width
            layers.append(replace(layer, width=pruned_width(base_w, rate), base_width=base_w))
        else:
            layers.append(layer)
    return ModelSpec(base.input_shape, tuple(layers), base.class_count, rate)


def mlp_spec(input_shape: tuple[int, ...], hidden: tuple[int, ...], class_count: int) -> ModelSpec:
    """A fully connected network: (flatten ->) [dense, relu]* -> dense."""

    layers: list[LayerSpec] = []
    if len(input_shape) > 1:
        layers.append(LayerSpec(kind="flatten"))
    for h in hidden:
        layers.append(LayerSpec(kind="dense", width=int(h), base_width=int(h)))
        layers.append(LayerSpec(kind="relu"))
    layers.append(LayerSpec(kind="dense", width=class_count, base_width=class_count))
    return ModelSpec(tuple(int(d) for d in input_shape), tuple(layers), class_count)


def cnn_spec(
    input_shape: tuple[int, int, int],
    conv_channels: tuple[int, ...],
    class_count: int,
    kernel: int = 3,
    pool: int = 2,
    dense_width: int = 64,
) -> ModelSpec:
    """A small convnet: [conv, relu, maxpool]* -> flatten -> dense, relu -> dense."""

    layers: list[LayerSpec] = []
    for c in conv_channels:
        layers.append(
            LayerSpec(kind="conv", width=int(c), base_width=int(c), kernel=kernel, stride=1,
                      padding=kernel // 2)
        )
        layers.append(LayerSpec(kind="relu"))
        layers.append(LayerSpec(kind="maxpool", kernel=pool, stride=pool))
    layers.append(LayerSpec(kind="flatten"))
    layers.append(LayerSpec(kind="dense", width=int(dense_width), base_width=int(dense_width)))
    layers.append(LayerSpec(kind="relu"))
    layers.append(LayerSpec(kind="dense", width=class_count, base_width=class_count))
    return ModelSpec(tuple(int(d) for d in input_shape), tuple(layers), class_count)


def init_params(spec: ModelSpec, seed) -> ModelParams:
    """Seeded initial parameters.

    Weights are uniform on ``[-sqrt(6 / fan_in), +sqrt(6 / fan_in)]`` (fan_in
    is the input dimension for dense layers and ``in_channels * k * k`` for
    conv layers); biases start at zero.
    """

    rng = np.random.default_rng(seed)
    params = ModelParams(spec.layout)
    for name, tensor in params.tensors.items():
        if name.endswith(".weight"):
            bound = math.sqrt(6.0 / math.prod(tensor.shape[1:]))
            tensor[...] = rng.uniform(-bound, bound, size=tensor.shape)
    return params


def validate_params(spec: ModelSpec, params: ModelParams) -> None:
    """Check that ``params`` is laid out as ``spec`` calls for (see :meth:`ParamLayout.check`)."""

    spec.layout.check(params.layout)


def overlap_map(large: ModelSpec, small: ModelSpec) -> None:
    """Check that each of ``small``'s tensors is a leading block of ``large``'s.

    Both specs must describe the same architecture (same layer kinds in the
    same order, same input shape and class count); ``small`` may not be wider
    than ``large`` anywhere.
    """

    if large.input_shape != small.input_shape or large.class_count != small.class_count:
        raise DimensionError("models do not share input shape / class count")
    if len(large.layers) != len(small.layers) or any(
        a.kind != b.kind for a, b in zip(large.layers, small.layers)
    ):
        raise DimensionError("models do not share a layer layout")
    large_spans = large.layout.spans
    for name, (_, _, small_shape) in small.layout.spans.items():
        for axis, (s, l) in enumerate(zip(small_shape, large_spans[name][2])):
            if s > l:
                raise DimensionError(
                    f"{name}: axis {axis} of the small model ({s}) exceeds the large model ({l})"
                )


def extract_overlap(params: ModelParams, small: ModelSpec, out: ModelParams | None = None) -> ModelParams:
    """The leading block of each tensor, copied into ``out`` (new when omitted), of ``small``'s layout."""

    out = ModelParams(small.layout) if out is None else out
    for name, block in out.tensors.items():
        block[...] = params.tensors[name][tuple(map(slice, block.shape))]
    return out


def spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "input_shape": list(spec.input_shape),
        "class_count": spec.class_count,
        "pruning_rate": spec.pruning_rate,
        "layers": [asdict(layer) for layer in spec.layers],
    }


def _require_keys(d, keys: list[str], what: str) -> None:
    if not isinstance(d, dict) or set(d) != set(keys):
        raise DimensionError(f"{what} needs exactly the keys {', '.join(keys)}")


def spec_from_dict(d: dict) -> ModelSpec:
    """The spec :func:`spec_to_dict` wrote.

    A missing or unknown key raises :class:`DimensionError`, as does any
    value the constructors reject; a layer's error names its index.
    """

    _require_keys(d, ["input_shape", "class_count", "pruning_rate", "layers"], "a model spec")
    shape, layers = d["input_shape"], d["layers"]
    if not isinstance(shape, list):
        raise DimensionError(f"input_shape must be a list of integers, got {shape!r}")
    if not isinstance(layers, list):
        raise DimensionError(f"layers must be a list, got {layers!r}")
    built = []
    for i, layer in enumerate(layers):
        _require_keys(layer, [f.name for f in fields(LayerSpec)], "a layer")
        try:
            built.append(LayerSpec(**layer))
        except DimensionError as exc:
            raise DimensionError(f"layer {i} {exc}") from exc
    return ModelSpec(tuple(shape), tuple(built), d["class_count"], d["pruning_rate"])


def save_checkpoint(path, spec: ModelSpec, params: ModelParams) -> None:
    """Write spec + parameters to a single ``.npz`` file."""

    validate_params(spec, params)
    header = json.dumps({"format": "fedsim-checkpoint-v1", "spec": spec_to_dict(spec)})
    np.savez(path, __header__=np.array(header), **params.tensors)


def load_checkpoint(path) -> tuple[ModelSpec, ModelParams]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    The tensors are loaded as float64, in the spec's order whatever their
    order in the file, and checked against the spec in the header; a
    missing, extra or wrongly shaped tensor raises :class:`DimensionError`
    naming it.
    """

    with np.load(path, allow_pickle=False) as archive:
        try:
            header = json.loads(str(archive["__header__"]))
        except (KeyError, ValueError):  # no header, or not JSON
            header = None
        if not isinstance(header, dict) or header.get("format") != "fedsim-checkpoint-v1":
            raise DimensionError(f"{path}: not a recognised checkpoint file")
        try:
            spec = spec_from_dict(header.get("spec"))
        except DimensionError as exc:
            raise DimensionError(f"{path}: {exc}") from exc
        rank = {name: i for i, name in enumerate(spec.layout.spans)}
        names = sorted((n for n in archive.files if n != "__header__"), key=lambda n: rank.get(n, len(rank)))
        params = ModelParams.from_tensors({name: archive[name] for name in names})
    validate_params(spec, params)
    return spec, params
