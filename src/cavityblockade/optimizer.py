"""Optimal-blockade parameter search and nonreciprocity analysis.

The two-photon amplitude vanishes exactly when

    a z^2 + b z + c = 0,    z = e^{-i theta},
    a = E^2 J^2,  b = E Omega J (M + N + delta_e),  c = Omega^2 (J^2 + N delta_e)

with E the microwave amplitude and Omega the cavity drive; this is the
numerator of the closed-form c2g after clearing denominators.  When the
cavity detuning is free it is set to the single-excitation resonance
delta_c = G + J^2/delta_e, so a, b and c stay polynomials in J.

A real root needs |z| = 1, and a root on the unit circle is shared with the
conjugate-reciprocal quadratic conj(c) z^2 + conj(b) z + conj(a).  The real
J of every root are therefore real zeros of the resultant of the two,

    (|a|^2 - |c|^2)^2 - |a conj(b) - b conj(c)|^2,

an even real polynomial in J: degree 10 for a joint solve and 8 for a fixed
cavity detuning, so a quintic or quartic in J^2.  Its zeros come from
companion-matrix eigenvalues, and the shared root
z = (|a|^2 - |c|^2) / (conj(c) b - a conj(b)) gives theta.  The solve is
exact and complete: every real root, with no start points or search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import steady_state
from .params import Direction, NumericalFailure, SystemParams
from .params import _AMPLITUDE_INPUTS, _denominators, _derive, _Report, _warn_regime

#: Largest |c2g|/|c1g|^2 of an accepted root: its g2 is below 2e-20.
C2G_RESIDUAL_TOL = 1e-10

#: Largest |J| of :func:`nonreciprocal_point`'s roots and (J, theta) maps.
J_LIMIT = 5.0

#: Points a side of :func:`nonreciprocal_point`'s coarse (J, theta) map.
_SCAN_POINTS = 161

#: Columns per root solve in :func:`solve_optimal_arrays`; bounds its tables.
_SOLVE_COLUMNS = 1 << 10

#: The coefficients of :func:`_derive` that :func:`_cancellation_roots`
#: takes, in its argument order.
_ROOT_INPUTS = ("e_eg", "omega", "g_shift", "delta_e", "kappa")


class NoRealSolution(NumericalFailure):
    """No real (J, theta) satisfies the cancellation condition."""


class DegenerateDetuning(NumericalFailure):
    """delta_e = 0 leaves the optimal cavity detuning undefined."""


class NotNonreciprocal(UserWarning):
    """The selected working point does not have forward g2 < 1 < backward g2."""


@dataclass(frozen=True)
class OptimalPoint:
    """An exact zero of the two-photon amplitude.

    ``residual`` is the achieved |c2g| at the root; ``delta_c_opt`` equals
    G + J^2/delta_e for a joint solve and echoes the fixed detuning
    otherwise.
    """

    J: float
    theta: float
    delta_c_opt: float
    residual: float
    direction: Direction


@dataclass(frozen=True)
class NonreciprocityReport(_Report):
    """A one-way working point (J, theta) at cavity detuning ``delta_c``:
    g2 in both drive directions and contrast = log10(backward/forward)."""

    J: float
    theta: float
    delta_c: float
    g2_forward: float
    g2_backward: float
    contrast: float


def _canonical(j, z):
    """(J, theta) for the root (J, z = e^{-i theta}), taking of the equivalent
    pair (J, z) and (-J, -z) the one with theta closest to 0 (positive theta
    on an exact tie)."""
    flip = (z.real < 0.0) | ((z.real == 0.0) & (z.imag > 0.0))
    return np.where(flip, -j, j), -np.angle(np.where(flip, -z, z))


def _poly_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise product of polynomials with ascending coefficients."""
    out = np.zeros(
        p.shape[:-1] + (p.shape[-1] + q.shape[-1] - 1,), dtype=np.result_type(p, q)
    )
    for k in range(p.shape[-1]):
        out[..., k : k + q.shape[-1]] += p[..., k, None] * q
    return out


def _positive_zeros(coef: np.ndarray) -> np.ndarray:
    """Positive real zeros of real polynomials, one per row of ascending
    coefficients (K, n), NaN-padded to shape (K, n - 1).

    The eigenvalues of each companion matrix are polished by Newton steps on
    the polynomial itself.
    """
    coef = coef / np.max(np.abs(coef), axis=-1, keepdims=True)
    rows, n = coef.shape
    zeros = np.full((rows, n - 1), np.nan, dtype=complex)
    # An exactly vanishing leading coefficient lowers a row's degree.
    degree = n - 1 - np.argmax(coef[:, ::-1] != 0.0, axis=-1)
    # Grouped with plain Python, not np.unique: in numpy 2.4 np.unique calls
    # np.ma.is_masked, whose first use imports numpy.ma (15-19 ms), a large
    # share of a one-shot CLI process.
    for d in sorted(set(degree[degree > 0].tolist())):
        sel = degree == d
        companion = np.zeros((int(sel.sum()), d, d))
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        companion[:, :, -1] = -coef[sel, :d] / coef[sel, d, None]
        zeros[sel, :d] = np.linalg.eigvals(companion)
    # One of each conjugate pair: a tangent real zero splits into a pair with
    # imaginary parts of order sqrt(eps) of its size, judged by that size
    # alone, since at weak drive every zero lies far below 1.
    near_real = (zeros.imag >= 0.0) & (np.abs(zeros.imag) <= 1e-6 * np.abs(zeros))
    s = np.where(near_real, zeros.real, np.nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(4):
            val = np.zeros_like(s)
            slope = np.zeros_like(s)
            for k in range(n - 1, -1, -1):
                slope = slope * s + val
                val = val * s + coef[:, k, None]
            step = val / slope
            s = np.where(np.isfinite(step), s - step, s)
    return np.where(s > 0.0, s, np.nan)


def _cancellation_roots(
    e, omega, g_shift, delta_e, kappa, delta_c=None
) -> tuple[np.ndarray, ...]:
    """Every canonical real cancellation root of each column.

    Takes 1-D arrays of the system constants, with ``delta_c`` the fixed
    cavity detuning of each column or None for a joint solve, and returns
    (J, theta, delta_c_opt, |c2g|), each of shape (K, 15), and ``overflow``
    of shape (K,).  A row lists its column's roots in selection order
    (smallest |J| first, then theta closest to 0, positive theta first) and
    is NaN after the last one.  A real zero of the resultant is a root where
    |c2g| < ``C2G_RESIDUAL_TOL`` |c1g|^2.  Columns with the microwave drive
    off, or with delta_e = 0 on a joint solve, have no roots; so do the
    columns whose resultant is not finite, which ``overflow`` marks.
    """
    fix_delta_c = delta_c is not None
    e, omega, g_shift, delta_e, kappa = (
        np.asarray(v, dtype=float)[:, None] for v in (e, omega, g_shift, delta_e, kappa)
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # delta_c = d0 + q s with s = J^2; then a = alpha s, b = J beta(s) and
        # c = gamma(s), with beta and gamma linear in s.
        q = np.zeros_like(delta_e) if fix_delta_c else 1.0 / delta_e
        d0 = np.asarray(delta_c, dtype=float)[:, None] if fix_delta_c else g_shift
        _, n0 = _denominators(d0, kappa, g_shift, delta_e)
        alpha = e**2
        beta = e * omega * np.concatenate([2.0 * n0 - g_shift, 2.0 * q + 0j], axis=1)
        gamma = omega**2 * np.concatenate(
            [n0 * delta_e, 1.0 + q * delta_e + 0j], axis=1
        )
        alpha_s = np.concatenate([np.zeros_like(alpha), alpha], axis=1)
        # The resultant in s: |a conj(b) - b conj(c)|^2 carries a factor s
        # because a and c are even in J and b is odd.
        d = _poly_mul(alpha_s, alpha_s) - _poly_mul(gamma, gamma.conj()).real
        u = _poly_mul(alpha_s, beta.conj()) - _poly_mul(beta, gamma.conj())
        resultant = np.zeros((e.shape[0], 6))
        resultant[:, :5] = _poly_mul(d, d)
        resultant[:, 1:] -= _poly_mul(u, u.conj()).real
    overflow = ~np.all(np.isfinite(resultant), axis=1)
    solvable = (e[:, 0] != 0.0) & ~overflow
    s = np.full((e.shape[0], 5), np.nan)
    s[solvable] = _positive_zeros(resultant[solvable])

    j = np.sqrt(s)
    a = alpha * s
    b = j * (beta[:, :1] + beta[:, 1:] * s)
    c = gamma[:, :1] + gamma[:, 1:] * s
    with np.errstate(divide="ignore", invalid="ignore"):
        shared = (a * a - np.abs(c) ** 2) / (c.conj() * b - a * b.conj())
        disc = np.sqrt(b * b - 4.0 * a * c)
        pair = ((-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a))

        def on_circle(z):
            return np.abs(np.abs(z) - 1.0) <= 1e-6

        # The shared-root formula is 0/0 where the quadratic equals its
        # conjugate reciprocal (both roots on the circle, or a double root):
        # then its own roots are tested directly.
        use_shared = on_circle(shared)
        z = np.stack(
            [np.where(use_shared, shared, np.nan)]
            + [np.where(~use_shared & on_circle(p), p, np.nan) for p in pair],
            axis=-1,
        ).reshape(e.shape[0], -1)
        jj, theta = _canonical(np.repeat(j, 3, axis=1), z)
        dc = np.broadcast_to(d0, jj.shape) if fix_delta_c else g_shift + jj**2 / delta_e
        m, n = _denominators(dc, kappa, g_shift, delta_e)
        c1g, _, c2g, _, valid = steady_state._amplitudes(
            omega, m, n, delta_e, jj, theta, e
        )
        residual = np.abs(c2g)
        root = valid & (residual < C2G_RESIDUAL_TOL * np.abs(c1g) ** 2)
    order = np.lexsort((theta < 0.0, np.abs(theta), np.where(root, np.abs(jj), np.inf)))
    root = np.take_along_axis(root, order, axis=1)
    return tuple(
        np.where(root, np.take_along_axis(x, order, axis=1), np.nan)
        for x in (jj, theta, dc, residual)
    ) + (overflow,)


def find_roots(params: SystemParams, fix_delta_c: bool = False) -> list[OptimalPoint]:
    """Every real cancellation root.

    With ``fix_delta_c`` the cavity detuning stays at ``params.delta_c``;
    otherwise it follows each root as delta_c = G + J^2/delta_e.  Roots are
    canonical (theta in [-pi/2, pi/2], the equivalent (-J, theta + pi) folded
    onto it) and sorted by the selection rule: smallest |J| first, ties
    broken by theta closest to zero.  Raises NumericalFailure where the
    drives are so strong that the resultant overflows.
    """
    if params.e_eg == 0.0:
        raise NoRealSolution(
            "with the microwave drive off the cancellation condition reduces to "
            "J**2 + N*delta_e = 0, whose imaginary part -kappa*delta_e/2 cannot "
            "vanish for kappa > 0; no real (J, theta) exists"
        )
    if not fix_delta_c and params.delta_e == 0.0:
        raise DegenerateDetuning(
            "the optimal cavity detuning delta_c = G + J**2/delta_e is undefined "
            "for delta_e = 0"
        )
    c, _ = _derive(params, {})
    j, theta, dc, residual, overflow = (
        row[0]
        for row in _cancellation_roots(
            *([c[k]] for k in _ROOT_INPUTS),
            [c["delta_c"]] if fix_delta_c else None,
        )
    )
    if overflow:
        raise NumericalFailure(
            f"the degree-{8 if fix_delta_c else 10} resultant of the cancellation "
            "condition overflows at these drive strengths, so its real roots "
            "cannot be computed"
        )
    return [
        OptimalPoint(
            J=float(j[i]),
            theta=float(theta[i]),
            delta_c_opt=float(dc[i]),
            residual=float(residual[i]),
            direction=params.direction,
        )
        for i in np.flatnonzero(np.isfinite(j))
    ]


def solve_optimal(params: SystemParams, fix_delta_c: bool = False) -> OptimalPoint:
    """The selected cancellation root (smallest |J|, then theta nearest 0).

    Use :func:`find_roots` for the full list of roots.
    """
    roots = find_roots(params, fix_delta_c)
    if not roots:
        raise NoRealSolution(
            "the cancellation condition has no real root (J, theta) here"
        )
    return roots[0]


def solve_optimal_arrays(
    e, omega, g_shift, delta_e, kappa
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-wise selected cancellation roots over arrays of system constants.

    Broadcasts every constant to a common shape, solves each column exactly
    and alone, ``_SOLVE_COLUMNS`` columns a call, with the cavity detuning
    free (a joint solve), and applies the selection rule of
    :func:`solve_optimal`.  Returns (J, theta, delta_c_opt), NaN in columns
    without a real root (microwave off, delta_e = 0, a resultant that
    overflows, or none exists).  :func:`find_roots` fixes the detuning.
    """
    consts = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (e, omega, g_shift, delta_e, kappa))
    )
    out = np.empty((3, consts[0].size))
    for start in range(0, consts[0].size, _SOLVE_COLUMNS):
        block = slice(start, start + _SOLVE_COLUMNS)
        roots = _cancellation_roots(*(v.flat[block] for v in consts))
        # The first column of each (K, 15) root table is the selected root.
        out[:, block] = [x[:, 0] for x in roots[:3]]
    return tuple(out.reshape((3,) + consts[0].shape))


def nonreciprocal_point(
    params: SystemParams, target_delta_c: float
) -> tuple[float, float, NonreciprocityReport]:
    """Working point (J, theta) for one-way blockade at a target detuning.

    Of the exact forward cancellation roots at the target cavity detuning
    with |J| <= ``J_LIMIT``, returns the one with the largest backward g2.
    Only when no root lies in that window does it sweep J x theta on a
    161 x 161 grid for the least forward g2 in the region where the
    backward direction is bunched (g2 > 1), or anywhere when that region is
    empty, and then resweep the window of two cells either side of that
    point twice, each time on a 41 x 41 grid under the same rule and with
    |J| <= ``J_LIMIT``.  Warns NotNonreciprocal when the final point does
    not separate the two directions, that is unless forward g2 < 1 <
    backward g2, and a RegimeWarning, worded as :func:`derive_effective`
    words it, for each regime condition the point violates in either
    direction.

    The scan asks of the backward direction only g2 > 1, with no margin, so
    its point may sit on the edge of the bunched region: on 83 seeded
    no-root draws, 59 returned backward g2 < 1.01.  Whether to require a
    margin, or to rank by contrast instead, is an open physics decision.

    At an exact root the forward g2 is round-off, so the report's contrast
    means nothing there.  The fig6c and fig6d presets write this report at
    the reference point with targets 0 and 2.5; their g2_forward, 1.6e-31
    and 2.6e-31, are such round-off.  The three-level model
    (``full_model.validate_effective``, n_max = 3) gives forward g2 0.0465
    and backward 73.45 at fig6c (contrast 3.20), and 0.0727 and 50.40 at
    fig6d (contrast 2.84).  fig6c's J = 4.735 lies outside the elimination
    regime, where it warns |delta_he/e_he| = 2.12.
    """
    at_target = replace(params, delta_c=float(target_delta_c))
    forward = replace(at_target, direction=Direction.FORWARD)
    try:
        roots = find_roots(forward, fix_delta_c=True)
    except NoRealSolution:
        roots = []
    candidates = [(r.J, r.theta) for r in roots if abs(r.J) <= J_LIMIT] or [
        _scan_forward_g2(at_target)
    ]
    # Window roots, or else the scan's point, are ranked in one pass, whose
    # backward g2 and conditions are the winner's own.
    (g2_b, violated_b), (j_best, theta_best) = max(
        ((_direction_g2(at_target, Direction.BACKWARD, *jt), jt) for jt in candidates),
        key=lambda item: item[0][0],
    )
    g2_f, violated = _direction_g2(at_target, Direction.FORWARD, j_best, theta_best)
    _warn_regime(violated + violated_b, 2)
    contrast = (
        math.log10(g2_b / g2_f)
        if g2_f > 0.0 and g2_b > 0.0 and math.isfinite(g2_f) and math.isfinite(g2_b)
        else math.nan
    )
    if not (g2_f < 1.0 < g2_b):
        warnings.warn(
            f"g2 = {g2_f:.6g} forward and {g2_b:.6g} backward at the selected "
            "point; the blockade is not nonreciprocal here",
            NotNonreciprocal,
            stacklevel=2,
        )
    report = NonreciprocityReport(
        J=j_best,
        theta=theta_best,
        delta_c=float(target_delta_c),
        g2_forward=g2_f,
        g2_backward=g2_b,
        contrast=contrast,
    )
    return j_best, theta_best, report


def _scan_forward_g2(at_target: SystemParams) -> tuple[float, float]:
    """Least forward g2 on a J x theta sweep, in the backward-bunched region
    when it exists, refined by two 41 x 41 resweeps of +-2 cells around it;
    each direction's map is one unwarned ``sweeps._evaluate_direction``."""
    from . import sweeps
    j_range, theta_range = (-J_LIMIT, J_LIMIT), (-math.pi, math.pi)
    for side in (_SCAN_POINTS, 41, 41):
        spec = sweeps.SweepSpec(
            sweeps.SweepAxis("J", *j_range, side), sweeps.SweepAxis("theta", *theta_range, side)
        )
        j_values, theta_values = spec.axis1.values(), spec.axis2.values()
        fwd, bwd = (
            sweeps._evaluate_direction(replace(at_target, direction=d), spec, None)[0]["g2"]
            for d in (Direction.FORWARD, Direction.BACKWARD)
        )
        # g2 is NaN at every invalid point.
        ok = np.isfinite(fwd) & np.isfinite(bwd)
        if not bool(np.any(ok)):
            raise NoRealSolution("the (J, theta) scan produced no valid points")
        bunched = ok & (bwd > 1.0)
        masked = np.where(bunched if bool(np.any(bunched)) else ok, fwd, np.inf)
        i, k = np.unravel_index(int(np.argmin(masked)), masked.shape)
        j, theta = j_values[i], theta_values[k]
        dj = 2.0 * (j_values[1] - j_values[0])
        dtheta = 2.0 * (theta_values[1] - theta_values[0])
        j_range = (max(j - dj, -J_LIMIT), min(j + dj, J_LIMIT))
        theta_range = (theta - dtheta, theta + dtheta)
    j, theta = _canonical(j, np.exp(-1j * theta))
    return float(j), float(theta)


def _direction_g2(params: SystemParams, direction: Direction, j, theta):
    """g2 in one drive direction at couplings (J, theta) (inf at a singular
    point), and the regime conditions violated there."""
    c, violated = _derive(replace(params, direction=direction), {"J": j, "theta": theta})
    stats, valid = steady_state._stats_from_parameters(*(c[k] for k in _AMPLITUDE_INPUTS))
    return (float(stats["g2"]) if bool(valid) else math.inf), violated


__all__ = [
    "DegenerateDetuning",
    "NonreciprocityReport",
    "NoRealSolution",
    "NotNonreciprocal",
    "OptimalPoint",
    "find_roots",
    "nonreciprocal_point",
    "solve_optimal",
]
