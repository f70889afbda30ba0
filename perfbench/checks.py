"""Output checks that do not copy the program's own output.

Each check recomputes what the program returned from closed forms and
plain numpy, and returns a list of problems (empty when the output is
right). The order-1 kernel is the raised cosine 1 + cos(2*pi*u) on
|u| <= 1/2, and the raised_cosine test density has the same marginal,
so both have closed forms here that share no code with the package.
"""

from __future__ import annotations

import math

import numpy as np


def raised_cosine(u: np.ndarray) -> np.ndarray:
    """1 + cos(2*pi*u) on |u| <= 1/2, zero outside."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 0.5, 1.0 + np.cos(2.0 * np.pi * u), 0.0)


def kernel_sum(points: np.ndarray, x: np.ndarray, exponents) -> tuple[float, float]:
    """Order-1 product-kernel estimate at x for bandwidth 2**-exponents.

    Returns the estimate and count / (n * volume), where count is the
    number of points in the kernel's support: the factor by which the
    per-term interpolation tolerance scales.
    """
    h = 2.0 ** -np.asarray(exponents, dtype=float)
    vals = raised_cosine((points - x) / h)
    inside = int(np.all(np.abs((points - x) / h) <= 0.5, axis=1).sum())
    scale = 1.0 / (points.shape[0] * float(np.prod(h)))
    return float(vals.prod(axis=1).sum() * scale), inside * scale


def interpolation_tolerance(table_size: int, dim: int) -> float:
    """Largest error of one product-kernel term read from linear tables.

    On a step of 1/table_size the interpolation error of 1 + cos(2 pi u)
    is at most step**2 / 8 * max|k''| = pi**2 / (2 table_size**2); a
    product of dim factors bounded by 2 multiplies it by dim 2**(dim-1).
    A rounding allowance covers the summation.
    """
    e1 = math.pi ** 2 / (2.0 * table_size ** 2)
    return dim * (2.0 + e1) ** (dim - 1) * e1 + 1e-12 * 2.0 ** dim


def raised_cosine_density(x: np.ndarray) -> float:
    return float(np.prod(raised_cosine(x)))


def check_lattice(exponents: np.ndarray, max_exponent: int) -> list[str]:
    """Every selected exponent is an integer in 0..max_exponent."""
    exps = np.asarray(exponents)
    bad = ~((exps >= 0) & (exps <= max_exponent) & (exps == np.round(exps)))
    if bad.any():
        rows = sorted(set(np.nonzero(bad)[0].tolist()))
        return [f"selected exponents off the lattice 0..{max_exponent} at rows {rows[:5]}"]
    return []


def check_estimates(points, xs, estimates, exponents, table_size) -> list[str]:
    """Each estimate equals the closed-form kernel sum at its bandwidth."""
    problems = []
    tol = interpolation_tolerance(table_size, points.shape[1])
    for i, (x, est, exps) in enumerate(zip(xs, estimates, exponents)):
        want, per_term = kernel_sum(points, x, exps)
        if not abs(est - want) <= tol * per_term + 1e-15:
            problems.append(f"estimate at row {i} is {est!r}, closed form gives {want!r}")
    return problems


def check_argmin(criterion: dict, selected) -> list[str]:
    """The selection minimizes the criterion under the documented tie-break:
    smallest value, then largest volume (smallest exponent sum), then
    lexicographically smallest exponents."""
    best = min(criterion, key=lambda k: (criterion[k], sum(k), k))
    if tuple(selected) != best:
        return [f"selected {tuple(selected)} but the criterion's argmin is {best}"]
    return []


def trapezoid(values: np.ndarray, axis_nodes: np.ndarray) -> float:
    step = (axis_nodes[-1] - axis_nodes[0]) / (axis_nodes.size - 1)
    return float(step * (values.sum() - 0.5 * (values[0] + values[-1])))


def replicate_risk(estimates: np.ndarray, axis_nodes: np.ndarray, p: float) -> float:
    """p-th power L_p error of a d=1 raised-cosine estimate on its grid."""
    return trapezoid(np.abs(estimates - raised_cosine(axis_nodes)) ** p, axis_nodes)


def check_close(name: str, got: float, want: float, rel: float = 1e-9) -> list[str]:
    if not abs(got - want) <= rel * abs(want) + 1e-300:
        return [f"{name}: got {got!r}, recomputed {want!r}"]
    return []


def check_risk_rows(rows, values_by_n: dict, p: float) -> list[str]:
    """Each row aggregates its own replicates exactly as run_plan documents."""
    problems = []
    for row in rows:
        vals = np.asarray(values_by_n[row.n], dtype=float)
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / np.sqrt(vals.size))
        if row.mean_risk_p != mean:
            problems.append(f"row n={row.n}: mean {row.mean_risk_p!r} != mean of "
                            f"its replicates {mean!r}")
        problems += check_close(f"row n={row.n} stderr", row.stderr, stderr)
        problems += check_close(f"row n={row.n} risk", row.risk, mean ** (1.0 / p))
    return problems


def check_rate(ns, means, slope: float, band: tuple[float, float]) -> list[str]:
    """Mean risk falls from the smallest n to the largest, and the
    log-log slope of the risk lies in the band."""
    problems = []
    if not means[-1] < means[0]:
        problems.append(f"mean risk does not fall: n={ns[0]:g} gives {means[0]!r}, "
                        f"n={ns[-1]:g} gives {means[-1]!r}")
    if not band[0] <= slope <= band[1]:
        problems.append(f"rate slope {slope:.4f} outside {band}")
    return problems


def check_oracle_record(record: dict, points: np.ndarray, table_size: int) -> list[str]:
    """The bound holds, and lhs is |closed-form estimate - f(x)|."""
    problems = []
    if not record["holds"]:
        problems.append(f"bound fails at x={record['x']}: lhs {record['lhs']!r} "
                        f"> rhs {record['rhs']!r}")
    x = np.asarray(record["x"], dtype=float)
    est, per_term = kernel_sum(points, x, record["selected"])
    want = abs(est - raised_cosine_density(x))
    tol = interpolation_tolerance(table_size, points.shape[1]) * per_term + 1e-13
    if not abs(record["lhs"] - want) <= tol:
        problems.append(f"lhs {record['lhs']!r} at x={record['x']} != closed form {want!r}")
    return problems


def fits_csv(xs, estimates, exponents) -> bytes:
    """fits.csv as `anisokde estimate` writes it (header on, no clamp)."""
    dim = xs.shape[1]
    cols = ([f"x_{j + 1}" for j in range(dim)] + ["fhat"]
            + [f"k_{j + 1}" for j in range(dim)])
    lines = [",".join(cols)]
    for x, est, exps in zip(xs, estimates, exponents):
        lines.append(",".join([format(float(v), ".17g") for v in x]
                              + [format(float(est), ".17g")]
                              + [str(int(k)) for k in exps]))
    return ("\n".join(lines) + "\n").encode("utf-8")
