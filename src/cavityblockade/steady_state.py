"""Perturbative steady-state amplitudes and photon statistics.

Under weak driving the amplitude hierarchy can be truncated order by
order: the single-excitation pair (c1g, c0e) is solved with the
two-excitation feedback dropped, then the two-excitation pair (c2g, c1e)
is slaved to it.  The resulting closed forms are what every sweep and the
optimality analysis run on; the RK4 integrator is the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import EffectiveParams, NumericalFailure, SystemParams, derive_effective
from .params import _point_inputs

SQRT2 = math.sqrt(2.0)

#: Denominators smaller than this (in kappa**2 units) are treated as singular.
SINGULAR_TOL = 1e-10

#: Below this total photonic occupation g2 is reported as undefined (NaN).
G2_OCCUPATION_FLOOR = 1e-30

#: The statistics a sweep keeps, in the order of its CSV columns.
STAT_COLUMNS = ("p1", "p2", "g2", "n_paper", "n_full")

#: The statistics of :func:`stats_arrays`, in its order.
_STAT_NAMES = STAT_COLUMNS + ("norm",)


class SingularDenominator(NumericalFailure):
    """A steady-state denominator is too close to zero to invert, or not
    finite."""

    def __init__(self, which: str, magnitude: float):
        self.which = which
        self.magnitude = magnitude
        if math.isfinite(magnitude):
            text = f"has magnitude {magnitude:.3e} <= {SINGULAR_TOL:g} kappa^2"
        else:
            text = f"is not finite (magnitude {magnitude})"
        super().__init__(f"steady-state denominator {which} {text}")


@dataclass
class AmplitudeState:
    """Five complex amplitudes of the truncated weak-driving basis at time t.

    The components are ordered (c0g, c1g, c0e, c2g, c1e): |0,g>, |1,g>,
    |0,e>, |2,g> and |1,e>.  The closed form below builds one with t = inf;
    ``dynamics.Trajectory`` stores its steps as arrays and gives one per
    step on indexing.
    """

    c0g: complex
    c1g: complex
    c0e: complex
    c2g: complex
    c1e: complex
    t: float = 0.0

    def as_vector(self) -> np.ndarray:
        return np.array(
            [self.c0g, self.c1g, self.c0e, self.c2g, self.c1e], dtype=complex
        )

    @classmethod
    def from_vector(cls, vec: np.ndarray, t: float = 0.0) -> "AmplitudeState":
        c0g, c1g, c0e, c2g, c1e = (complex(v) for v in vec)
        return cls(c0g=c0g, c1g=c1g, c0e=c0e, c2g=c2g, c1e=c1e, t=float(t))

    def norm_squared(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.as_vector()))


@dataclass(frozen=True)
class PhotonStats:
    """Occupation probabilities and the equal-time two-photon correlation.

    ``g2`` is NaN when the photonic occupation p1 + 2 p2 is below
    G2_OCCUPATION_FLOOR; it is never silently reported as zero.  ``n_cavity_paper`` is the leading
    |c1g|**2 estimate of the photon number; ``n_cavity_full`` adds the
    dressed and two-photon contributions |c1e|**2 + 2 |c2g|**2.
    """

    p1: float
    p2: float
    g2: float
    n_cavity_paper: float
    n_cavity_full: float
    norm: float


def _amplitude_denominators(m, n, delta_e, j):
    """The arrays J^2 - M delta_e and J^2 - M N, named, and for each where it
    is finite and safely away from zero: one that overflows, or is NaN or
    infinite from a non-finite input, is singular, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        dens = {"J^2 - M*delta_e": j**2 - m * delta_e, "J^2 - M*N": j**2 - m * n}
    return dens, [np.isfinite(d) & (np.abs(d) > SINGULAR_TOL) for d in dens.values()]


def _as_arrays(values, dtypes):
    """The broadcast shape of ``values``, and the values as arrays of
    ``dtypes`` with every 0-d one made a one-element array.

    numpy returns a scalar from an operation on 0-d operands and computes
    on scalars with its scalar arithmetic, whose complex products and
    squares round differently from the array loops of a grid; so a point is
    computed as the one-element grid it is, and its numbers are those of its
    cell in any grid.  :func:`_at_shape` views a result back at the inputs'
    shape.
    """
    shape = np.broadcast(*values).shape
    arrays = [np.asarray(v, dtype=t) for v, t in zip(values, dtypes)]
    return shape, [a.reshape(1) if a.ndim == 0 else a for a in arrays]


def _at_shape(a, shape):
    """A result computed on :func:`_as_arrays` inputs, at their broadcast
    ``shape``: itself if it has that shape, else a read-only view, 0-d for
    a point."""
    if a.shape == shape:
        return a
    return np.broadcast_to(a, shape) if shape else a.reshape(())


def _amplitudes(omega, m, n, delta_e, j, theta, e_eg):
    """The four excited amplitudes (c1g, c0e, c2g, c1e) and ``valid``.

    The inputs are not broadcast up front: each term is computed on the
    shape its own inputs span (the phase only where theta varies, the
    denominators only where J, M, N and delta_e do), so a 2-D grid whose
    axes enter separately pays full-grid work only where they meet.  Every
    operation is the one a full-grid evaluation would do, in the same
    order, on arrays (:func:`_as_arrays`), so the values are bit-identical
    to any grid's cell.  The returned arrays are broadcast (read-only views)
    to the common shape of the inputs.

    Invalid points divide by an infinite denominator, so their amplitudes
    are zero (or NaN); the callers mask them.  An amplitude of a valid point
    may overflow to inf, without a warning; :func:`_stats` marks it.
    """
    shape, (omega, m, n, delta_e, j, theta, e_eg) = _as_arrays(
        (omega, m, n, delta_e, j, theta, e_eg),
        (float, complex, complex, float, float, float, float),
    )
    phase_minus = np.exp(-1j * theta)
    phase_plus = np.conj(phase_minus)

    dens, (ok1, ok2) = _amplitude_denominators(m, n, delta_e, j)
    d1, d2 = dens.values()
    valid = ok1 & ok2

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        safe1 = np.where(valid, d1, np.inf)
        safe2 = np.where(valid, d2, np.inf)
        c1g = (e_eg * j * phase_minus + omega * delta_e) / safe1
        c0e = (e_eg * m + omega * j * phase_plus) / safe1
        c2g = (
            (e_eg * j * phase_minus + omega * n) * c1g
            + omega * j * phase_minus * c0e
        ) / (SQRT2 * safe2)
        c1e = (
            (e_eg * m + omega * j * phase_plus) * c1g + omega * m * c0e
        ) / safe2
    return tuple(_at_shape(a, shape) for a in (c1g, c0e, c2g, c1e, valid))


def amplitude_arrays(
    omega,
    m,
    n,
    delta_e,
    j,
    theta,
    e_eg,
) -> tuple[np.ndarray, np.ndarray]:
    """Steady amplitudes for broadcastable parameter arrays.

    Returns ``(c, valid)`` where c has shape (*S, 5) ordered as
    :class:`AmplitudeState`.  ``valid`` is the rule of the sweeps: the
    denominators are regular and the occupations finite.  Invalid points
    carry NaN amplitudes.
    """
    c1g, c0e, c2g, c1e, regular = _amplitudes(omega, m, n, delta_e, j, theta, e_eg)
    valid = regular & _stats(1.0, c1g, c0e, c2g, c1e)[1]
    c = np.stack(
        [np.ones_like(c1g), c1g, c0e, c2g, c1e],
        axis=-1,
    )
    c[~valid] = np.nan
    return c, valid


def _g2(p1, p2):
    """2 P2/(P1 + 2 P2)^2, NaN where P1 + 2 P2 < G2_OCCUPATION_FLOOR, on
    arrays of ndim >= 1: a point is handed over as one element
    (:func:`_as_arrays`)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        occupation = p1 + 2.0 * p2
        return np.where(
            occupation >= G2_OCCUPATION_FLOOR, 2.0 * p2 / occupation**2, np.nan
        )


def _stats(*amplitudes) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The statistics of :func:`stats_arrays` from the five amplitudes, in
    the basis order of :class:`AmplitudeState`, the norm summed in that
    order, and where the occupations are finite; computed on arrays
    (:func:`_as_arrays`) and viewed at the amplitudes' broadcast shape.

    A point whose norm or photon number ``n_full`` is not finite (an
    amplitude that is not finite, or an occupation that overflows) has no
    statistics: every one is NaN there, and nothing warns.
    """
    shape, amplitudes = _as_arrays(amplitudes, [complex] * len(amplitudes))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p0g, p1g, p0e, p2g, p1e = (np.abs(c) ** 2 for c in amplitudes)
        norm = p0g + p1g + p0e + p2g + p1e
        p1 = (p1g + p1e) / norm
        p2 = p2g / norm
        stats = {
            "p1": p1,
            "p2": p2,
            "g2": _g2(p1, p2),
            "n_paper": p1g,
            "n_full": p1g + p1e + 2.0 * p2g,
            "norm": norm,
        }
    # n_full counts |c2g|^2 twice, so it can overflow where the norm does not.
    finite = np.isfinite(norm) & np.isfinite(stats["n_full"])
    if not finite.all():
        stats = {name: np.where(finite, v, np.nan) for name, v in stats.items()}
    stats = {name: _at_shape(v, shape) for name, v in stats.items()}
    return stats, _at_shape(finite, shape)


def stats_arrays(c: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized photon statistics for stacked amplitude vectors (*S, 5);
    NaN where an occupation is not finite."""
    return _stats(*np.moveaxis(c, -1, 0))[0]


def _stats_from_parameters(
    omega, m, n, delta_e, j, theta, e_eg, out: dict[str, np.ndarray] | None = None
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """``stats_arrays(amplitude_arrays(...)[0])`` and ``valid`` in one pass.

    No (*S, 5) stack is built; both evaluate :func:`_stats`, so the results
    are bit-identical.  ``valid`` is where the denominators are regular and
    the occupations finite; it is the one rule for a point's validity, and
    every statistic is NaN wherever it is False.

    ``out`` maps some of the statistics to float arrays the inputs
    broadcast to, such as the rows of a sweep grid; exactly those are
    written, straight into them, and invalid points are masked there.
    Without it, every statistic gets an array of the inputs' common shape.
    """
    c1g, c0e, c2g, c1e, regular = _amplitudes(omega, m, n, delta_e, j, theta, e_eg)
    stats, finite = _stats(1.0, c1g, c0e, c2g, c1e)
    valid = regular & finite
    if out is None:
        out = {name: np.empty(valid.shape) for name in _STAT_NAMES}
    invalid = None if valid.all() else ~valid
    for name, target in out.items():
        np.copyto(target, stats[name])
        if invalid is not None:
            np.copyto(target, np.nan, where=invalid)
    return out, valid


def _steady_point(
    eff: EffectiveParams, e_eg: float
) -> tuple[AmplitudeState, PhotonStats]:
    """The closed-form steady state of one point and its statistics, from
    one pass of the grid evaluator; raises as :func:`analytic_amplitudes`."""
    c1g, c0e, c2g, c1e, valid = _amplitudes(*_point_inputs(eff, e_eg))
    if not valid:
        m, j = np.asarray(eff.M, dtype=complex), np.asarray(eff.J, dtype=float)
        dens, oks = _amplitude_denominators(m, eff.N, eff.delta_e, j)
        which = next(name for name, ok in zip(dens, oks) if not ok)
        raise SingularDenominator(which, float(np.abs(dens[which])))
    stats = _photon_stats(*_stats(1.0, c1g, c0e, c2g, c1e))
    c1g, c0e, c2g, c1e = (a.item() for a in (c1g, c0e, c2g, c1e))
    state = AmplitudeState(c0g=1 + 0j, c1g=c1g, c0e=c0e, c2g=c2g, c1e=c1e, t=math.inf)
    return state, stats


def analytic_amplitudes(eff: EffectiveParams, e_eg: float) -> AmplitudeState:
    """Closed-form steady state with c0g = 1.

    Raises SingularDenominator when J**2 - M*delta_e or J**2 - M*N is
    within SINGULAR_TOL of zero, and the NumericalFailure of
    :func:`photon_stats` when an occupation is not finite: exactly where
    :func:`amplitude_arrays` flags the point invalid.
    """
    return _steady_point(eff, e_eg)[0]


def _photon_stats(stats: dict[str, np.ndarray], finite: np.ndarray) -> PhotonStats:
    """The PhotonStats of one point's :func:`_stats`."""
    if not finite:
        raise NumericalFailure(
            "photon statistics need finite occupations: an amplitude is not "
            "finite or an occupation overflows"
        )
    if stats["norm"] == 0.0:
        return PhotonStats(0.0, 0.0, math.nan, 0.0, 0.0, 0.0)
    # The fields of PhotonStats are the statistics, in their order.
    return PhotonStats(*(float(stats[name]) for name in _STAT_NAMES))


def photon_stats(state: AmplitudeState) -> PhotonStats:
    """Occupations and g2 of an amplitude state, exactly as defined.

    Raises NumericalFailure when an amplitude is not finite or an
    occupation overflows.
    """
    return _photon_stats(*_stats(*state.as_vector()))


def steady_stats(
    params: SystemParams,
    *,
    j: float | None = None,
    theta: float | None = None,
) -> PhotonStats:
    """Convenience: derive the effective model and evaluate its steady stats.

    Raises a NumericalFailure (a SingularDenominator, or occupations that
    are not finite) exactly where a sweep marks the one point ``valid = false``,
    and elsewhere every statistic equals bit for bit the point's cell in any
    sweep.
    """
    eff = derive_effective(params, j=j, theta=theta)
    return _steady_point(eff, params.e_eg)[1]


#: The statistics of :func:`stats_arrays` a sweep can map, in the order the
#: command line lists them.
OBSERVABLES = ("g2", "n_paper", "n_full", "p1", "p2")

__all__ = [
    "OBSERVABLES",
    "AmplitudeState",
    "PhotonStats",
    "SingularDenominator",
    "amplitude_arrays",
    "analytic_amplitudes",
    "photon_stats",
    "stats_arrays",
    "steady_stats",
]
