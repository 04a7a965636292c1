"""Minimal dense-tensor kernel with reverse-mode autodiff and RMSprop.

Everything the tagging model needs and nothing more: 2-D float64 tensors,
gradient accumulation via a recorded graph, the RMSprop update and the
parameter initialisers. That update decays every accumulator entry but does
the rest only on the rows with a non-zero gradient, in place, and gives the
same bits as the dense update: a character-table step costs the characters
the sentence used, not the whole vocabulary.

Every layer is one node, a fused kernel: it computes its output in numpy
and hands ``result`` a backward closure that accumulates every input's
gradient at once. ``accumulate`` is the one gradient gate: it skips tensors
without ``requires_grad``, so closures call it for all. Attention and the
decoder share the array row softmax, ``softmax`` and ``softmax_grad``.

The graph ops left, ``mul``, ``log``, ``scale`` and ``sum_all``, are those
the cross-entropy loss and a staged backward's seeds compose. Products,
sums and the row softmax have no graph op: the kernels call numpy directly.

Parameters' data, RMSprop accumulators and the gradient that every
``Tensor(data, requires_grad=True)`` starts with are ``mapped_zeros`` arrays,
which take memory only once written: predict-only use never pays for a
gradient or an accumulator. ``uniform_init`` draws in place, with no copy.

Conventions: tensors are 2-D; "vectors" are row vectors of shape (1, d).
A leaf owns its gradient for life: it accumulates until a caller zeroes it.
An op output's gradient lives for one backward pass.
"""

from __future__ import annotations

import math
import mmap
from typing import Callable, Sequence

import numpy as np

LOG_FLOOR = 1e-12
RHO = 0.9  # RMSprop decay of the squared-gradient accumulator
EPSILON = 1e-8  # RMSprop floor under the accumulator's square root


class DimensionError(ValueError):
    """Raised when operand shapes do not satisfy an op's contract."""


class Tensor:
    """A 2-D float64 array plus an accumulated gradient buffer.

    Tensors created by ops carry references to their inputs and a backward
    closure; together these form the computation graph that ``backward``
    replays in reverse topological order. A ``requires_grad`` leaf owns a
    zero ``mapped_zeros`` gradient for life; an op output's lives one pass.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = mapped_zeros(arr.shape) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        """Zero the gradient; a tensor without requires_grad raises ValueError."""
        if not self.requires_grad:
            raise ValueError("zero_grad: the tensor does not require grad")
        if self.grad is not None:  # an op output's, between passes
            self.grad[:] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def result(data: np.ndarray, parents: Sequence[Tensor],
           backward: Callable[[np.ndarray], None]) -> Tensor:
    """An op's output tensor; it joins the graph when any parent needs a grad.

    ``backward`` receives the output's gradient and must ``accumulate`` into
    every parent.
    """
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g into t.grad, allocated on first use, if t requires a gradient."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product, identical shapes only."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def backward(g: np.ndarray) -> None:
        accumulate(a, g * b.data)
        accumulate(b, g * a.data)

    return result(a.data * b.data, (a, b), backward)


def log(a: Tensor) -> Tensor:
    """Natural log with the input floored at LOG_FLOOR to stay finite."""
    clamped = np.maximum(a.data, LOG_FLOOR)
    y = np.log(clamped)

    def backward(g: np.ndarray) -> None:
        # zero gradient where the floor is active
        accumulate(a, g * (a.data > LOG_FLOOR) / clamped)

    return result(y, (a,), backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a Python constant."""
    c = float(c)

    def backward(g: np.ndarray) -> None:
        accumulate(a, g * c)

    return result(a.data * c, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    """Sum over all entries, yielding a (1,1) scalar tensor."""

    def backward(g: np.ndarray) -> None:
        accumulate(a, np.full_like(a.data, g.reshape(-1)[0]))

    return result(np.array([[a.data.sum()]]), (a,), backward)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an array, with max subtraction; rows sum to 1."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The logits' gradient, given the softmax rows y and their gradient g."""
    return y * (g - (g * y).sum(axis=1, keepdims=True))


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into .grad of every leaf root depends on.

    root must be one finite element, else DimensionError (a shape) or
    ValueError (nan or inf) before any closure runs. A leaf's gradient adds
    onto its buffer, so running twice doubles it. An op output's gradient
    lives for one pass: it is taken off the node before the node's closure
    runs.
    """
    if root.data.size != 1:
        raise DimensionError(f"backward: root must be scalar, got shape {root.shape}")
    if not math.isfinite(root.data.item()):
        raise ValueError(f"backward: root is not finite ({root.data.item()})")

    # iterative topological sort (graphs easily exceed the recursion limit)
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    accumulate(root, np.ones_like(root.data))
    for node in reversed(order):
        if node._backward is not None:
            g, node.grad = node.grad, None
            node._backward(g)


class RmspropState:
    """The RMSprop learning rate plus per-parameter squared-gradient
    accumulators; the decay is RHO and the denominator's floor EPSILON."""

    def __init__(self, learning_rate: float):
        if not 0 < learning_rate < np.inf:  # also rejects nan
            raise ValueError(
                f"learning_rate must be finite and > 0, got {learning_rate}")
        self.learning_rate = learning_rate
        # keyed by the tensor itself (tensors hash by identity), which keeps it
        # alive: an id() key could pass a freed tensor's state to a new one
        self._acc: dict[Tensor, np.ndarray] = {}

    def accumulator(self, theta: Tensor) -> np.ndarray:
        acc = self._acc.get(theta)
        if acc is None:
            acc = mapped_zeros(theta.shape)
            self._acc[theta] = acc
        return acc


def rmsprop_step(theta: Tensor, state: RmspropState) -> None:
    """acc <- RHO*acc + (1-RHO)*grad^2; theta <- theta - lr*grad/sqrt(acc+EPSILON).

    Zeroes theta.grad afterwards. Only the decay ``acc *= RHO`` touches every
    row; the rest runs on the live rows, those with a gradient entry whose
    bits are not +0.0 (a NaN, an inf or a -0.0 is live). This is exact: a
    dead row would add ((1-RHO)*0)*0 = +0 to acc and subtract (lr*0)/sqrt(..)
    = +0 from theta, and both leave every bit as it is. (That quotient is NaN
    only where acc is, which is only where an earlier NaN gradient already
    made theta NaN.) When every row is live the rows are a slice, so the
    update runs in place on views. A tensor without requires_grad raises
    ValueError and leaves `state` as it is.
    """
    if not theta.requires_grad:
        raise ValueError("rmsprop_step: the tensor does not require grad")
    g = theta.grad
    acc = state.accumulator(theta)
    acc *= RHO
    live = np.flatnonzero(np.bitwise_or.reduce(g.view(np.int64), axis=1))
    rows = slice(None) if live.size == g.shape[0] else live
    g_live, acc_live = g[rows], acc[rows]
    # same association order as the dense formula: ((1-RHO)*g)*g, (lr*g)/sqrt
    t = (1.0 - RHO) * g_live
    t *= g_live
    acc_live += t
    acc[rows] = acc_live
    np.add(acc_live, EPSILON, out=t)
    np.sqrt(t, out=t)
    g_live *= state.learning_rate
    g_live /= t
    theta.data[rows] -= g_live
    g[rows] = 0.0


def mapped_zeros(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A writable zero array in an anonymous mapping of its own: it starts on
    a page boundary, a page takes memory when first written, and freeing the
    array unmaps it (glibc keeps up to twice the size of a large freed heap
    block held)."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes == 0:
        return np.zeros(shape, dtype)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype).reshape(shape)


def uniform_init(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Trainable tensor, uniform in +-sqrt(6/(rows+cols)) (fan-based scaling),
    drawn in place with the stream and bits of `rng.uniform(-limit, limit)`."""
    limit = np.sqrt(6.0 / (rows + cols))
    t = zeros_init(rows, cols)
    rng.random(out=t.data)  # u, then low + range * u as rng.uniform computes it
    t.data *= 2 * limit
    t.data += -limit
    return t


def zeros_init(rows: int, cols: int) -> Tensor:
    """A trainable zero tensor, its data and gradient each `mapped_zeros`, so
    each starts on a page boundary: where the heap places a weight matrix sets
    the speed of a gemv against it (at d = 100, up to ~1.5x slower off a
    64-byte boundary, for the same bits), so no parameter is left to heap luck."""
    return Tensor(mapped_zeros((rows, cols)), requires_grad=True)
