"""Closed-form convergence bounds, evaluated as per-iteration curves.

All curves bound the squared distance ||x_k - x||^2 from the iterate to a
reference solution x, in terms of a few scalars of the (row-normalized)
system: the smallest singular value sigma_min, the Frobenius norm squared
(which is m for unit rows), and the sup norm of the reference residual
e = A x - b.

The randomized-Kaczmarz curve contracts by (1 - sigma_min^2 / ||A||_F^2)
per step toward a noise horizon. The greedy (max-residual) curves contract
by (1 - sigma_min^2 / (4 gamma_k)) per step, where gamma_k is the dynamic
range of the residual, ||A(x_k - x)||^2 / ||A(x_k - x)||_inf^2; the simple
bound gamma_k <= m gives the worst-case variant. The Gaussian-rate curves
carry unspecified absolute constants (fixed to 1 here), so they are
qualitative overlays rather than certified bounds; the certified
assertions in the test suite use only the constant-free inequalities.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .systems import LinearSystem

GAMMA_RANGE_TOL = 1e-9


@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs shared by the bound formulas.

    error_inf is either the exact ||e||_inf or an upper bound beta for it;
    gamma_seq, when present, is the empirical dynamic-range sequence of a
    greedy run (entries in [1, m]).
    """

    m: int
    n: int
    sigma_min: float
    error_inf: float
    initial_error_sq: float
    frobenius_sq: float
    gamma_seq: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.sigma_min <= 0:
            raise ValueError("sigma_min must be positive")
        if self.error_inf < 0 or self.initial_error_sq < 0:
            raise ValueError("error_inf and initial_error_sq must be nonnegative")
        if self.sigma_min ** 2 > self.frobenius_sq * (1 + 1e-9):
            raise ValueError("sigma_min^2 cannot exceed the squared Frobenius norm")
        if self.gamma_seq is not None:
            g = np.asarray(self.gamma_seq, dtype=float)
            if g.size and (g.min() < 1 - GAMMA_RANGE_TOL or g.max() > self.m + GAMMA_RANGE_TOL):
                raise ValueError(f"gamma values must lie in [1, m={self.m}]")


@dataclass
class BoundCurve:
    """A named sequence of per-iteration bound values on ||x_k - x||^2.

    `clamped` flags that some contraction factor fell outside [0, 1] and was
    clamped, which signals inputs outside the regime the formula covers.
    """

    name: str
    values: np.ndarray
    clamped: bool = False


def _clamp_factor(f: float) -> tuple[float, bool]:
    if f < 0.0:
        return 0.0, True
    if f > 1.0:
        return 1.0, True
    return f, False


def _check_num_iterations(num_iterations: int) -> None:
    if num_iterations < 0:
        raise ValueError(f"num_iterations must be nonnegative, got {num_iterations}")


def rk_bound(inp: BoundInputs, num_iterations: int) -> BoundCurve:
    """Expected-error bound for randomized Kaczmarz on a noisy system:
    (1 - s^2/F^2)^k * E0 + (F^2/s^2) * e_inf^2."""
    _check_num_iterations(num_iterations)
    s2 = inp.sigma_min ** 2
    factor, clamped = _clamp_factor(1.0 - s2 / inp.frobenius_sq)
    horizon = (inp.frobenius_sq / s2) * inp.error_inf ** 2
    k = np.arange(num_iterations + 1)
    values = factor ** k * inp.initial_error_sq + horizon
    return BoundCurve("rk", values, clamped)


def motzkin_bound_worst_case(inp: BoundInputs, num_iterations: int) -> BoundCurve:
    """Greedy-selection bound with the coarse dynamic range gamma_k = m:
    (1 - s^2/(4m))^k * E0 + 2 m s^-2 e_inf^2."""
    _check_num_iterations(num_iterations)
    s2 = inp.sigma_min ** 2
    factor, clamped = _clamp_factor(1.0 - s2 / (4.0 * inp.m))
    horizon = 2.0 * inp.m / s2 * inp.error_inf ** 2
    k = np.arange(num_iterations + 1)
    values = factor ** k * inp.initial_error_sq + horizon
    return BoundCurve("motzkin-worst-case", values, clamped)


def motzkin_bound_empirical_gamma(inp: BoundInputs, num_iterations: int) -> BoundCurve:
    """Greedy-selection bound driven by an observed gamma sequence:
    prod_{j<k} (1 - s^2/(4 gamma_j)) * E0 + 2 m s^-2 e_inf^2."""
    _check_num_iterations(num_iterations)
    if inp.gamma_seq is None:
        raise ValueError("empirical-gamma bound requires gamma_seq")
    if len(inp.gamma_seq) < num_iterations:
        raise ValueError(f"gamma_seq has {len(inp.gamma_seq)} entries, need {num_iterations}")
    s2 = inp.sigma_min ** 2
    horizon = 2.0 * inp.m / s2 * inp.error_inf ** 2
    factors = 1.0 - s2 / (4.0 * np.asarray(inp.gamma_seq[:num_iterations], dtype=float))
    clamped = bool(np.any((factors < 0.0) | (factors > 1.0)))
    # a leading 1.0 keeps values[0] = E0 + horizon; cumprod multiplies in order, as a loop would
    products = np.cumprod(np.concatenate(([1.0], np.clip(factors, 0.0, 1.0))))
    return BoundCurve("motzkin-empirical-gamma", products * inp.initial_error_sq + horizon, clamped)


def final_error_bounds(inp: BoundInputs) -> tuple[float, float]:
    """Final-error guarantees once the residual sup norm is <= 4 * error_inf.

    Returns (at_stop, one_more_step):
      at_stop        25 m s^-2 e_inf^2   for the stopping iterate (the squared
                     form of sqrt(m) s^-1 * 5 beta, with error_inf as beta),
      one_more_step  (25 m s^-2 + 8) e_inf^2   after one further greedy step.
    """
    s2 = inp.sigma_min ** 2
    e2 = inp.error_inf ** 2
    at_stop = 25.0 * inp.m / s2 * e2
    one_more_step = (25.0 * inp.m / s2 + 8.0) * e2
    return at_stop, one_more_step


def gaussian_rate_bound(inp: BoundInputs, num_iterations: int, conjectured: bool = False) -> BoundCurve:
    """Expected-rate recursion for Gaussian systems, absolute constant fixed to 1.

    Each step applies E_{k+1} = (1 - f_k) E_k + e_inf^2 / 2 where
      f_k = log(m') s^2 / (4 n m)   with m' = max(2, m - k)   (proved form),
      f_k = log(m)  s^2 / (4 m)                               (conjectured form).
    Qualitative overlay only; the constants are not certified.
    """
    _check_num_iterations(num_iterations)
    if inp.m < 2:
        raise ValueError("gaussian rate bound requires m >= 2")
    s2 = inp.sigma_min ** 2
    noise = 0.5 * inp.error_inf ** 2
    values = np.empty(num_iterations + 1)
    values[0] = inp.initial_error_sq
    clamped = False
    for k in range(num_iterations):
        if conjectured:
            f = math.log(inp.m) * s2 / (4.0 * inp.m)
        else:
            m_prime = max(2, inp.m - k)
            f = math.log(m_prime) * s2 / (4.0 * inp.n * inp.m)
        f, c = _clamp_factor(f)
        clamped = clamped or c
        values[k + 1] = (1.0 - f) * values[k] + noise
    name = "gaussian-rate-conjectured" if conjectured else "gaussian-rate"
    return BoundCurve(name, values, clamped)


def gamma_expectation_bound(m: int, n: int, sampled_norms_sq) -> float:
    """A-priori bound on the expected residual dynamic range of a Gaussian system.

    With m' = m - (number of rows already hit by the iteration) the bound is
    n (m' + sum of the sampled rows' squared norms) / log(m'), absolute
    constant taken as 1. Requires m' >= 2.
    """
    sampled = np.asarray(sampled_norms_sq, dtype=float)
    m_prime = m - sampled.size
    if m_prime < 2:
        raise ValueError(f"need at least 2 unsampled rows, got m'={m_prime}")
    return n * (m_prime + float(sampled.sum())) / math.log(m_prime)


def sigma_min_gaussian_estimate(m: int, n: int) -> float:
    """Concentration estimate sqrt(m/n) - 1 for the smallest singular value
    of an m x n matrix with N(0, 1/n) entries (pre-normalization).

    An a-priori estimate for sizing experiments, never a substitute for the
    exact computation in assertions.
    """
    if m <= n:
        raise ValueError(f"estimate requires m > n, got m={m}, n={n}")
    return math.sqrt(m / n) - 1.0


def bound_inputs_from_system(sys: LinearSystem, gamma_seq=None) -> BoundInputs:
    """Collect the bound inputs of a system: its stored sigma_min, the
    reference residual sup norm, and the initial squared error of the zero
    start. Requires a reference solution and singular values."""
    if sys.reference is None or sys.singular_values is None:
        raise ValueError("bound inputs require a system with a reference solution and singular values")
    return BoundInputs(
        m=sys.m,
        n=sys.n,
        sigma_min=float(sys.singular_values[-1]),
        error_inf=sys.error_inf(),
        initial_error_sq=float(np.dot(sys.reference, sys.reference)),
        frobenius_sq=linalg.frobenius_norm_sq(sys.a),
        gamma_seq=None if gamma_seq is None else tuple(gamma_seq),
    )


def write_curves_csv(path, curves: list[BoundCurve]) -> None:
    """Curve export, schema `k,value,name`, curves concatenated in order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "value", "name"])
        for curve in curves:
            for k, v in enumerate(curve.values):
                writer.writerow([k, repr(float(v)), curve.name])
