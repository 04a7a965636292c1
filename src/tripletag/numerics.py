"""Minimal dense-tensor kernel with reverse-mode autodiff and RMSprop.

Everything the tagging model needs and nothing more: 2-D float64 tensors,
a fixed op set (matmul, elementwise add/sub/mul, sigmoid, tanh, row softmax,
column concat, row gather, transpose, clamped log, sum, scale), gradient
accumulation via a recorded graph, the RMSprop update, and a central
finite-difference oracle for checking all of the above.

Layers with a fused kernel (the GRU recurrences in ``encoder`` and
``decoder``) build their own one-node ops from ``result`` and ``accumulate``:
the kernel computes its output in numpy and hands ``result`` a backward
closure that accumulates every input's gradient at once.

Conventions: tensors are 2-D; "vectors" are row vectors of shape (1, d).
Gradients accumulate additively; callers zero them between steps. No
broadcasting except adding a (1, d) bias row onto an (n, d) matrix.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

LOG_FLOOR = 1e-12


class DimensionError(ValueError):
    """Raised when operand shapes do not satisfy an op's contract."""


class Tensor:
    """A 2-D float64 array plus an accumulated gradient buffer.

    Tensors created by ops carry references to their inputs and a backward
    closure; together these form the computation graph that ``backward``
    replays in reverse topological order.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
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
        if self.grad is not None:
            self.grad[:] = 0.0
        elif self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def result(data: np.ndarray, parents: Sequence[Tensor],
           backward: Callable[[np.ndarray], None]) -> Tensor:
    """An op's output tensor; it joins the graph when any parent needs a grad.

    ``backward`` receives the output's gradient and must ``accumulate`` into
    every parent that requires one.
    """
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g into t.grad, allocating it on first use."""
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b; shapes (m,k) x (k,n) -> (m,n)."""
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims disagree, {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            accumulate(a, g @ b.data.T)
        if b.requires_grad:
            accumulate(b, a.data.T @ g)

    return result(out_data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also permits adding a (1,d) bias row onto (n,d)."""
    if a.shape == b.shape:
        pass
    elif b.shape == (1, a.shape[1]):
        pass  # bias-row broadcast, the one permitted exception
    else:
        raise DimensionError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out_data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            accumulate(a, g)
        if b.requires_grad:
            accumulate(b, g if b.shape == g.shape else g.sum(axis=0, keepdims=True))

    return result(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub: shape mismatch {a.shape} vs {b.shape}")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            accumulate(a, g)
        if b.requires_grad:
            accumulate(b, -g)

    return result(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product, identical shapes only."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            accumulate(a, g * b.data)
        if b.requires_grad:
            accumulate(b, g * a.data)

    return result(a.data * b.data, (a, b), backward)


def sigmoid(a: Tensor) -> Tensor:
    # computed via tanh for stability on large |x|
    y = 0.5 * (1.0 + np.tanh(0.5 * a.data))

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            accumulate(a, g * y * (1.0 - y))

    return result(y, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            accumulate(a, g * (1.0 - y * y))

    return result(y, (a,), backward)


def log(a: Tensor) -> Tensor:
    """Natural log with the input floored at LOG_FLOOR to stay finite."""
    clamped = np.maximum(a.data, LOG_FLOOR)
    y = np.log(clamped)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            # zero gradient where the floor is active
            accumulate(a, g * (a.data > LOG_FLOOR) / clamped)

    return result(y, (a,), backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a Python constant."""
    c = float(c)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            accumulate(a, g * c)

    return result(a.data * c, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    """Sum over all entries, yielding a (1,1) scalar tensor."""

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            accumulate(a, np.full_like(a.data, g.reshape(-1)[0]))

    return result(np.array([[a.data.sum()]]), (a,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction; every row sums to 1."""
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            dot = (g * y).sum(axis=1, keepdims=True)
            accumulate(a, y * (g - dot))

    return result(y, (a,), backward)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Columns of a followed by columns of b; gradient splits accordingly."""
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"concat_cols: row counts differ, {a.shape} vs {b.shape}")
    p = a.shape[1]

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            accumulate(a, g[:, :p])
        if b.requires_grad:
            accumulate(b, g[:, p:])

    return result(np.hstack([a.data, b.data]), (a, b), backward)


def gather_rows(a: Tensor, ids: Sequence[int]) -> Tensor:
    """Rows a[ids] as a (len(ids), d) tensor; ids may repeat.

    The backward scatter-adds into the gathered rows of a.grad only, so its
    cost is O(len(ids) * d) whatever the size of a.
    """
    idx = np.asarray(ids)
    if idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu":
        raise DimensionError(
            f"gather_rows: ids must be a non-empty 1-D integer list, got {ids!r}")
    listed = idx.tolist()  # Python min/max: cheaper than numpy's on the one-id slices
    if min(listed) < 0 or max(listed) >= a.shape[0]:
        raise DimensionError(
            f"gather_rows: ids out of range [0, {a.shape[0]}): {ids!r}")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, g)

    return result(a.data.take(idx, axis=0), (a,), backward)


def transpose(a: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            accumulate(a, g.T)

    return result(a.data.T.copy(), (a,), backward)


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(tensor) into .grad of every recorded tensor.

    root must be a single-element tensor. Gradients add onto whatever is
    already in the buffers; running twice doubles them.
    """
    if root.data.size != 1:
        raise DimensionError(f"backward: root must be scalar, got shape {root.shape}")

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
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class RmspropState:
    """RMSprop configuration plus per-parameter squared-gradient accumulators."""

    def __init__(self, learning_rate: float = 1e-3, rho: float = 0.9,
                 epsilon: float = 1e-8):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho must be in (0,1), got {rho}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        self.learning_rate = learning_rate
        self.rho = rho
        self.epsilon = epsilon
        # keyed by the tensor itself (tensors hash by identity), which keeps it
        # alive: an id() key could pass a freed tensor's state to a new one
        self._acc: dict[Tensor, np.ndarray] = {}

    def accumulator(self, theta: Tensor) -> np.ndarray:
        acc = self._acc.get(theta)
        if acc is None:
            acc = np.zeros_like(theta.data)
            self._acc[theta] = acc
        return acc


def rmsprop_step(theta: Tensor, state: RmspropState) -> None:
    """acc <- rho*acc + (1-rho)*grad^2; theta <- theta - lr*grad/sqrt(acc+eps).

    Zeroes theta.grad afterwards.
    """
    if theta.grad is None:
        theta.zero_grad()
    g = theta.grad
    acc = state.accumulator(theta)
    acc *= state.rho
    acc += (1.0 - state.rho) * g * g
    theta.data -= state.learning_rate * g / np.sqrt(acc + state.epsilon)
    g[:] = 0.0


def finite_diff_grad(loss_fn: Callable[[], float], theta: Tensor,
                     h: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn w.r.t. every entry of theta.

    loss_fn must be a deterministic function of theta.data (re-run per probe).
    Returns an array of theta's shape; does not touch theta.grad.
    """
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    flat = theta.data.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        out[i] = (up - down) / (2.0 * h)
    return out.reshape(theta.data.shape)


def relative_error(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> float:
    """Max per-coordinate relative error, treating |x| < atol on both sides as 0."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), atol)
    err = np.abs(a - b) / denom
    err[(np.abs(a) < atol) & (np.abs(b) < atol)] = 0.0
    return float(err.max()) if err.size else 0.0


def uniform_init(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Trainable tensor, uniform in +-sqrt(6/(rows+cols)) (fan-based scaling)."""
    limit = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-limit, limit, size=(rows, cols)), requires_grad=True)


def zeros_init(rows: int, cols: int) -> Tensor:
    return Tensor(np.zeros((rows, cols)), requires_grad=True)
