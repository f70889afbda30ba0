"""Tensor-product trapezoid quadrature on axis-aligned boxes.

All integrands in this package are compactly supported and at least
continuous, so composite trapezoid rules on uniform per-dimension grids
are accurate and, more importantly, fully deterministic. Cross-checks
double the node count rather than switching schemes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericError, _index, _real

DEFAULT_NODES = 129


def trapezoid_rule(lo: float, hi: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite trapezoid rule on [lo, hi].

    A degenerate interval (hi <= lo) yields a single node with zero
    weight so that empty intersections integrate to exactly 0.
    """
    lo, hi, nodes = _real(lo, "lo"), _real(hi, "hi"), _index(nodes, "nodes", 2)
    if hi <= lo:
        return np.array([lo]), np.array([0.0])
    pts = np.linspace(lo, hi, nodes)
    w = np.full(nodes, (hi - lo) / (nodes - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return pts, w


def grid_and_weights(box: np.ndarray, nodes: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-dimension trapezoid nodes/weights for a (d, 2) box."""
    box = np.asarray(box, dtype=float)
    nodes_list, weights_list = [], []
    for lo, hi in box:
        pts, w = trapezoid_rule(lo, hi, nodes)
        nodes_list.append(pts)
        weights_list.append(w)
    return nodes_list, weights_list


def mesh_points(nodes_list: list[np.ndarray]) -> np.ndarray:
    """Stack a tensor grid into an (m, d) array of evaluation points."""
    mesh = np.meshgrid(*nodes_list, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def contract(values: np.ndarray, factors: list[np.ndarray]) -> float:
    """Contract a d-dim value array against one weight vector per axis."""
    out = values
    for f in factors:
        out = np.tensordot(f, out, axes=(0, 0))
    return float(out)


def tensor_integral(fn, box: np.ndarray, nodes: int = DEFAULT_NODES) -> float:
    """Integrate fn over an axis-aligned box.

    fn receives an (m, d) array and must return (m,) values.
    """
    nodes_list, weights_list = grid_and_weights(np.asarray(box, dtype=float), nodes)
    pts = mesh_points(nodes_list)
    vals = np.asarray(fn(pts), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericError("integrand returned non-finite values")
    shaped = vals.reshape([len(nl) for nl in nodes_list])
    return contract(shaped, weights_list)


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned tensor grid: a box plus per-axis node counts, stored
    as floats and ints."""

    box: tuple[tuple[float, float], ...]
    nodes: tuple[int, ...]

    def __post_init__(self):
        if len(self.box) != len(self.nodes) or not self.box:
            raise InvalidParameterError("box and nodes must have equal positive length")
        object.__setattr__(self, "nodes", tuple(_index(k, "nodes", 2) for k in self.nodes))
        box = tuple((_real(lo, "box"), _real(hi, "box")) for lo, hi in self.box)
        if any(not lo < hi for lo, hi in box):
            raise InvalidParameterError(f"every box interval needs lo < hi, got {box!r}")
        object.__setattr__(self, "box", box)

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.nodes)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, k) for (lo, hi), k in zip(self.box, self.nodes)]

    def axis_weights(self) -> list[np.ndarray]:
        out = []
        for (lo, hi), k in zip(self.box, self.nodes):
            _, w = trapezoid_rule(lo, hi, k)
            out.append(w)
        return out

    def mesh(self) -> np.ndarray:
        return mesh_points(self.axes())

    def integrate_values(self, values: np.ndarray) -> float:
        """Trapezoid integral of values laid out in this grid's shape."""
        vals = np.asarray(values, dtype=float).reshape(self.shape)
        return contract(vals, self.axis_weights())
