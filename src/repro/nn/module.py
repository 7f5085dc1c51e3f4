"""``Parameter`` / ``Module`` abstractions with explicit backprop.

The distributed training algorithms exchange parameters and gradients
as flat float64 vectors (exactly what goes on the wire in the paper's
MPI implementation), so ``Module`` exposes
:meth:`Module.get_flat_parameters` / :meth:`Module.set_flat_parameters`
/ :meth:`Module.get_flat_gradients` alongside the usual structured
views. The flat vectors are the storage: on first use a module tree is
packed into one value and one gradient buffer of which every
``Parameter.value`` / ``.grad`` is a view, so each flat accessor is one
vector operation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["Parameter", "Module", "Sequential"]


class Parameter:
    """A trainable tensor with an associated gradient buffer.

    Attributes
    ----------
    value:
        The parameter tensor (float64).
    grad:
        Gradient of the loss w.r.t. ``value``; same shape. Reset by
        :meth:`Module.zero_grad`, accumulated by backward passes.
    weight_decay:
        Whether L2 weight decay applies. Follows the common recipe of
        decaying weights but not biases / batch-norm scales.
    """

    __slots__ = ("value", "grad", "weight_decay", "name")

    def __init__(self, value: np.ndarray, *, weight_decay: bool = True, name: str = "") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.weight_decay = weight_decay
        self.name = name

    @property
    def size(self) -> int:
        return int(self.value.size)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.value.shape)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Parameter(name={self.name!r}, shape={self.shape})"


class Module:
    """Base class for layers and models.

    Subclasses implement :meth:`forward` and :meth:`backward`. The
    backward pass receives the gradient of the loss with respect to the
    module output and must (a) accumulate gradients into its
    parameters' ``grad`` buffers, (b) return the gradient with respect
    to its input and (c) drop what ``forward`` kept for it: one
    ``backward`` per ``forward``.
    """

    #: False only inside :meth:`predict`: layers then keep nothing for
    #: a backward pass.
    _retain = True

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._children: dict[str, "Module"] = {}
        # (values, grads): the flat buffers every ``Parameter.value`` /
        # ``.grad`` below this module is a view of, once packed.
        self._arena: tuple[np.ndarray, np.ndarray] | None = None

    # -- registration ------------------------------------------------
    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        self._check_unpacked()
        param.name = name
        self._parameters[name] = param
        return param

    def register_child(self, name: str, module: "Module") -> "Module":
        self._check_unpacked()
        self._children[name] = module
        return module

    def __setattr__(self, name: str, value: object) -> None:
        # One check for the common case: nearly every write is a layer's
        # per-forward cache (``self._x = ...``), not a registration.
        if isinstance(value, (Parameter, Module)):
            if isinstance(value, Parameter):
                self.__dict__.setdefault("_parameters", {})
                self.register_parameter(name, value)
            else:
                self.__dict__.setdefault("_children", {})
                self.register_child(name, value)
        object.__setattr__(self, name, value)

    def _check_unpacked(self) -> None:
        if self.__dict__.get("_arena") is not None:
            raise RuntimeError("parameters are packed: register before the first flat access")

    # -- traversal ----------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._children.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._children.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def train(self) -> "Module":
        """A no-op: every module always trains (batch norm normalises
        with the batch's statistics). The ledger's nn probe calls it."""
        return self

    def zero_grad(self) -> None:
        self._flat()[1].fill(0.0)

    # -- forward/backward ----------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, grad_out: np.ndarray) -> None:
        """``backward`` for a module fed with data rather than another
        layer's output: parameter gradients only, the input gradient
        nobody reads is not computed."""
        self.backward(grad_out)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass of a model that will not be back-propagated:
        no layer keeps anything for ``backward``, and a ``Conv2d`` never
        builds the whole patch matrix it would have kept."""
        modules = list(self.modules())
        for module in modules:
            module._retain = False
        try:
            return self.forward(x)
        finally:
            for module in modules:
                module._retain = True

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- flat views ------------------------------------------------------
    def _flat(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(values, grads)`` arena, packed on first use."""
        if self._arena is None:
            total = self.num_parameters()
            self._pack(np.empty(total), np.empty(total), 0)
        return self._arena

    def _pack(self, values: np.ndarray, grads: np.ndarray, start: int) -> int:
        """Move this subtree's parameters into ``values``/``grads`` from
        ``start`` on, in ``named_parameters`` order, and rebind each
        ``Parameter.value``/``.grad`` to its view. Every module of the
        subtree gets its own slice as arena, so flat access to a child
        stays coherent with its parent. Returns the end offset."""
        stop = start
        for param in self._parameters.values():
            begin, stop = stop, stop + param.size
            for flat, name in ((values, "value"), (grads, "grad")):
                view = flat[begin:stop].reshape(param.shape)
                view[...] = getattr(param, name)
                setattr(param, name, view)
        for child in self._children.values():
            stop = child._pack(values, grads, stop)
        self._arena = (values[start:stop], grads[start:stop])
        return stop

    @staticmethod
    def _load(buffer: np.ndarray, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != buffer.size:
            raise ValueError(f"flat vector has {flat.size} elements, model needs {buffer.size}")
        buffer[...] = flat.reshape(-1)

    def get_flat_parameters(self) -> np.ndarray:
        """All parameters as one float64 vector (a copy)."""
        return self._flat()[0].copy()

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        """Load parameter values from a flat vector produced by
        :meth:`get_flat_parameters` on an identically-shaped module."""
        self._load(self._flat()[0], flat)

    def get_flat_gradients(self) -> np.ndarray:
        return self._flat()[1].copy()

    def set_flat_gradients(self, flat: np.ndarray) -> None:
        self._load(self._flat()[1], flat)


class Sequential(Module):
    """Chain of modules applied in order; backward runs in reverse."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers: list[Module] = []
        for i, layer in enumerate(layers):
            self.layers.append(layer)
            self.register_child(f"layer{i}", layer)

    def append(self, layer: Module) -> "Sequential":
        self.register_child(f"layer{len(self.layers)}", layer)
        self.layers.append(layer)
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def backward_params(self, grad_out: np.ndarray) -> None:
        for layer in reversed(self.layers[1:]):
            grad_out = layer.backward(grad_out)
        if self.layers:
            self.layers[0].backward_params(grad_out)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
