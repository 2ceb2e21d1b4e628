"""Dense float64 tensors, a dynamic compute graph, and reverse-mode autodiff.

Values are C-contiguous row-major ``numpy`` float64 arrays.  Every forward
op creates one :class:`Expr` node eagerly, so node ids (a global counter)
are already in topological order; :func:`backward` walks them in reverse.
Non-finite values abort immediately with the name of the op or parameter
that holds them — silent divergence is not allowed.  Every op output is
checked as it is made.  Parameters are checked where they change, after
each optimizer step and on load (:meth:`ParamSet.check_finite`), not each
time a graph reads them; a value edited by hand elsewhere is caught by the
first op that reads it.  A parameter leaf has no gradient of its own: ops
add straight into :attr:`Parameter.grad`, which is the leaf's ``.grad``.

Each experiment owns a single :class:`Runtime`: one seeded PRNG stream
(numpy ``Generator`` over PCG64, whose output is stable across runs for a
fixed seed) plus the registry of named parameters.  Graphs are rebuilt from
scratch every step; parameters persist across steps, graph nodes never do.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Optional

import numpy as np


class NonFiniteError(FloatingPointError):
    """A forward op produced NaN or Inf."""

    def __init__(self, op: str):
        super().__init__(f"non-finite value produced by op '{op}'")
        self.op = op


_UID = itertools.count()


def _as_array(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _check_finite(value: np.ndarray, op: str) -> None:
    # a finite sum proves every entry finite; finite entries whose sum
    # overflows fall through to the exact scan, also where numpy's
    # floating-point error state turns that overflow into an exception
    try:
        if math.isfinite(value.sum()):
            return
    except (FloatingPointError, RuntimeWarning):
        pass
    if not np.all(np.isfinite(value)):
        raise NonFiniteError(op)


class Expr:
    """One node of the compute graph: a value, its parents, and a backward rule."""

    __slots__ = ("uid", "op", "value", "parents", "grad", "_bwd")

    def __init__(self, value: np.ndarray, parents: tuple, op: str,
                 bwd: Optional[Callable[["Expr"], None]] = None, check: bool = True):
        if check:
            _check_finite(value, op)
        self.uid = next(_UID)
        self.op = op
        self.value = value
        self.parents = parents
        self.grad = None
        self._bwd = bwd

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Expr) else scale(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Expr({self.op}, shape={self.shape})"


def const(x) -> Expr:
    """Graph leaf with no gradient."""
    return Expr(_as_array(x), (), "const")


def backward(loss: Expr) -> None:
    """Reverse-accumulate d(loss)/d(node) for every node reachable from loss.

    Ops add straight into the ``.grad`` of the parameters whose leaves they
    read; parameters not reachable keep whatever is in ``.grad`` (zeros
    after a fresh step).
    """
    if loss.value.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    seen: dict[int, Expr] = {loss.uid: loss}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent in node.parents:
            if parent.uid not in seen:
                seen[parent.uid] = parent
                stack.append(parent)
    loss.grad = np.ones((), dtype=np.float64)
    for node in sorted(seen.values(), key=lambda n: n.uid, reverse=True):
        if node.grad is not None and node._bwd is not None:
            node._bwd(node)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


class Parameter:
    """A named persistent tensor with a gradient slot and optimizer state."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = _as_array(value)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def size(self) -> int:
        return self.value.size

    def expr(self) -> Expr:
        """Fresh leaf node for this step's graph whose ``.grad`` is this
        parameter's ``grad``, so backward adds into it directly.

        The leaf is not checked for finiteness: the value was checked where
        it last changed, after an optimizer step or a load.
        """
        leaf = Expr(self.value, (), f"param:{self.name}", check=False)
        leaf.grad = self.grad
        return leaf

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.shape})"


def glorot_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class ParamSet:
    """Ordered registry of uniquely named parameters."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, shape: tuple, rng: np.random.Generator,
            init: str = "glorot") -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name '{name}'")
        if init == "glorot":
            value = glorot_uniform(shape, rng)
        elif init == "embed":
            value = rng.uniform(-0.1, 0.1, size=shape)
        elif init == "zeros":
            value = np.zeros(shape)
        else:
            raise ValueError(f"unknown init '{init}'")
        param = Parameter(name, value)
        self._params[name] = param
        return param

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self):
        return len(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def get(self, name: str) -> Parameter:
        return self._params[name]

    def check_finite(self) -> None:
        """Raise :class:`NonFiniteError` naming ``param:<name>`` for the first
        parameter that holds NaN or Inf."""
        for p in self._params.values():
            _check_finite(p.value, f"param:{p.name}")

    def total_size(self) -> int:
        """Number of stored floats; shared parameters count once."""
        return sum(p.size() for p in self._params.values())


class Runtime:
    """Per-experiment state: one seeded PRNG stream plus the parameter set."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.params = ParamSet()


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a: Expr, b: Expr) -> Expr:
    def bwd(node: Expr) -> None:
        a._accum(_unbroadcast(node.grad, a.value.shape))
        b._accum(_unbroadcast(node.grad, b.value.shape))

    return Expr(a.value + b.value, (a, b), "add", bwd)


def mul(a: Expr, b: Expr) -> Expr:
    def bwd(node: Expr) -> None:
        a._accum(_unbroadcast(node.grad * b.value, a.value.shape))
        b._accum(_unbroadcast(node.grad * a.value, b.value.shape))

    return Expr(a.value * b.value, (a, b), "mul", bwd)


def scale(a: Expr, c: float) -> Expr:
    c = float(c)

    def bwd(node: Expr) -> None:
        a._accum(node.grad * c)

    return Expr(a.value * c, (a,), "scale", bwd)


def tanh(a: Expr) -> Expr:
    out = np.tanh(a.value)

    def bwd(node: Expr) -> None:
        a._accum(node.grad * (1.0 - node.value ** 2))

    return Expr(out, (a,), "tanh", bwd)


def sigmoid(a: Expr) -> Expr:
    # numerically stable in both tails
    out = np.where(a.value >= 0,
                   1.0 / (1.0 + np.exp(-np.abs(a.value))),
                   np.exp(-np.abs(a.value)) / (1.0 + np.exp(-np.abs(a.value))))

    def bwd(node: Expr) -> None:
        a._accum(node.grad * node.value * (1.0 - node.value))

    return Expr(out, (a,), "sigmoid", bwd)


def matmul(a: Expr, b: Expr) -> Expr:
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("matmul requires 2-D operands")
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.value.shape} @ {b.value.shape}")

    def bwd(node: Expr) -> None:
        a._accum(node.grad @ b.value.T)
        b._accum(a.value.T @ node.grad)

    return Expr(a.value @ b.value, (a, b), "matmul", bwd)


def transpose(a: Expr) -> Expr:
    if a.value.ndim != 2:
        raise ValueError("transpose requires a 2-D operand")

    def bwd(node: Expr) -> None:
        a._accum(node.grad.T)

    return Expr(np.ascontiguousarray(a.value.T), (a,), "transpose", bwd)


def concat(xs: list[Expr], axis: int = 0) -> Expr:
    if not xs:
        raise ValueError("concat of zero tensors")
    ref = xs[0].value.shape
    for x in xs[1:]:
        other = x.value.shape
        if len(other) != len(ref) or any(o != r for i, (o, r) in enumerate(zip(other, ref)) if i != axis):
            raise ValueError(f"concat shape mismatch: {ref} vs {other} on axis {axis}")
    sizes = [x.value.shape[axis] for x in xs]
    offsets = np.cumsum([0] + sizes)

    def bwd(node: Expr) -> None:
        for x, start, stop in zip(xs, offsets[:-1], offsets[1:]):
            index = [slice(None)] * node.grad.ndim
            index[axis] = slice(start, stop)
            x._accum(node.grad[tuple(index)])

    return Expr(np.concatenate([x.value for x in xs], axis=axis), tuple(xs), "concat", bwd)


def slice_last(a: Expr, start: int, stop: int) -> Expr:
    """Contiguous slice along the last axis (column slice for matrices)."""

    def bwd(node: Expr) -> None:
        g = np.zeros_like(a.value)
        g[..., start:stop] = node.grad
        a._accum(g)

    return Expr(np.ascontiguousarray(a.value[..., start:stop]), (a,), "slice", bwd)


def esum(a: Expr) -> Expr:
    """Sum of all entries, as a scalar node."""

    def bwd(node: Expr) -> None:
        a._accum(np.full_like(a.value, node.grad))

    return Expr(np.asarray(a.value.sum()), (a,), "sum", bwd)


def sum_last(a: Expr) -> Expr:
    """Sum over the last axis (rows of a matrix -> vector)."""

    def bwd(node: Expr) -> None:
        a._accum(np.broadcast_to(node.grad[..., None], a.value.shape))

    return Expr(a.value.sum(axis=-1), (a,), "sum_last", bwd)


def lookup(table: Expr, ids) -> Expr:
    """Row gather: ``table[ids]``; backward scatter-adds into the rows."""
    ids = np.asarray(ids, dtype=np.int64)
    v = table.value.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise IndexError(f"lookup index out of range for table with {v} rows")

    def bwd(node: Expr) -> None:
        # add each used row's sum of its ids' gradients, as adding a scattered
        # zero table would, into the table's (a parameter's own) gradient
        if table.grad is None:
            table.grad = np.zeros_like(table.value)
        rows, inverse = np.unique(ids.reshape(-1), return_inverse=True)
        sums = np.zeros((rows.size,) + table.value.shape[1:])
        np.add.at(sums, inverse, node.grad.reshape((ids.size,) + table.value.shape[1:]))
        table.grad[rows] += sums

    return Expr(table.value[ids].copy(), (table,), "lookup", bwd)


# ---------------------------------------------------------------------------
# softmax family (last axis = distribution axis; 1-D or 2-D inputs)
# ---------------------------------------------------------------------------


def _softmax_value(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a: Expr) -> Expr:
    out = _softmax_value(a.value)

    def bwd(node: Expr) -> None:
        s = node.value
        dot = (node.grad * s).sum(axis=-1, keepdims=True)
        a._accum(s * (node.grad - dot))

    return Expr(out, (a,), "softmax", bwd)


def log_softmax(a: Expr) -> Expr:
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def bwd(node: Expr) -> None:
        s = np.exp(node.value)
        a._accum(node.grad - s * node.grad.sum(axis=-1, keepdims=True))

    return Expr(out, (a,), "log_softmax", bwd)


def pick_neg_log_softmax(a: Expr, picked) -> Expr:
    """Per-row ``-log softmax(a)[picked]`` (cross-entropy of one index).

    1-D input with int index gives a scalar; 2-D input with an index per row
    gives a vector of per-row losses.
    """
    x = a.value
    if x.ndim == 1:
        idx = int(picked)
        if not 0 <= idx < x.shape[0]:
            raise IndexError(f"picked index {idx} out of range for size {x.shape[0]}")
        soft = _softmax_value(x)
        out = np.asarray(-np.log(soft[idx]))

        def bwd(node: Expr) -> None:
            g = soft.copy()
            g[idx] -= 1.0
            a._accum(g * node.grad)

        return Expr(out, (a,), "pick_neg_log_softmax", bwd)
    ids = np.asarray(picked, dtype=np.int64)
    if ids.shape != (x.shape[0],):
        raise ValueError("need one picked index per row")
    if ids.size and (ids.min() < 0 or ids.max() >= x.shape[1]):
        raise IndexError("picked index out of range")
    soft = _softmax_value(x)
    rows = np.arange(x.shape[0])
    out = -np.log(soft[rows, ids])

    def bwd(node: Expr) -> None:
        g = soft.copy()
        g[rows, ids] -= 1.0
        a._accum(g * node.grad[:, None])

    return Expr(out, (a,), "pick_neg_log_softmax", bwd)


# ---------------------------------------------------------------------------
# dropout family
# ---------------------------------------------------------------------------


def _mask_mul(a: Expr, mask: np.ndarray, op: str) -> Expr:
    def bwd(node: Expr) -> None:
        a._accum(node.grad * mask)

    return Expr(a.value * mask, (a,), op, bwd)


def variational_dropout(a: Expr, rate: float, rng: np.random.Generator,
                        cache: dict, key, train: bool = True) -> Expr:
    """Dropout whose mask is sampled once per ``key`` and reused from ``cache``.

    Reusing one cache across all time steps of a sequence gives each step
    the identical mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if not train or rate == 0.0:
        return a
    if key not in cache:
        cache[key] = (rng.random(a.value.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return _mask_mul(a, cache[key], "variational_dropout")


def word_dropout(a: Expr, rate: float, rng: np.random.Generator, train: bool = True) -> Expr:
    """Zero whole rows (token vectors) with probability ``rate``; no rescale.

    Unlike the scaled modes, rate 1.0 is legal here (every vector zeroed).
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"word dropout rate {rate} outside [0, 1]")
    if not train or rate == 0.0:
        return a
    rows = a.value.shape[0] if a.value.ndim > 1 else 1
    keep = (rng.random((rows, 1)) >= rate).astype(np.float64)
    if a.value.ndim == 1:
        keep = keep[0]
    return _mask_mul(a, keep, "word_dropout")


# ---------------------------------------------------------------------------
# gradient utilities
# ---------------------------------------------------------------------------


def clip_global_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``."""
    params = list(params)
    total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
    if total > max_norm > 0:
        factor = max_norm / total
        for p in params:
            p.grad *= factor
    return total
