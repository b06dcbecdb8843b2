"""Time evolution of the weak-driving amplitude equations.

The effective non-Hermitian Hamiltonian (cavity loss folded into the
single- and two-photon denominators) closes on five basis amplitudes

    c0g  |0, g>     c1g  |1, g>     c0e  |0, e>
    c2g  |2, g>     c1e  |1, e>

and the equations of motion are linear with constant coefficients, so a
classical fixed-step fourth-order Runge-Kutta step is the exact quartic
Taylor polynomial of the true propagator: one 5x5 step map S.  The
integrators advance many steps per matrix product by precomputed powers
of S, built as increments S^j - I so that their rounding does not
accumulate from window to window.

Both keep the contract of the plain iteration, state = S state one step
(or one steady-test window) at a time: the results agree with it to
rounding, not bit for bit, and stop, or fail, at the same step or window.
A state is finite when the modulus of every amplitude is finite; a run
fails with :class:`NonFiniteState` at its first state that is not,
unless it stopped steady before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .params import EffectiveParams
from .steady_state import SQRT2, AmplitudeState

_NORM_EPS = 1e-12

#: Steady-test windows advanced per matrix product: :func:`evolve` fills a
#: chunk of this many windows' states at once, :func:`steady_rk4` finds this
#: many window ends at once.
_CHUNK_WINDOWS = 16

#: A chunk's bound on its states' real and imaginary parts below which the
#: modulus of every amplitude is finite.
_FINITE_BOUND = 1e300


class NonFiniteState(ArithmeticError):
    """An amplitude became NaN or infinite during integration."""


def vacuum_state() -> AmplitudeState:
    return AmplitudeState(c0g=1.0, c1g=0.0, c0e=0.0, c2g=0.0, c1e=0.0, t=0.0)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings, in units of 1/kappa.

    Integration stops early once, over the trailing ``ss_window``, every
    amplitude satisfies |delta c| / (|c| + 1e-12) < ss_tol.  The test is
    relative per amplitude, so the smallest amplitude sets when it passes:
    at a blockade point c2g is a cancellation residue far below the other
    amplitudes, and a default run there ends unsteady at ``t_max`` although
    the large amplitudes settled long before; :attr:`Trajectory.slowest_decay`
    says how fast they did.  The test is decided at exactly the step the
    step-by-step iteration decides it: :func:`evolve` screens a chunk of
    windows with one amplitude's test only to skip the steps at which none
    can pass, and :func:`steady_rk4` stops after the first window at which
    every set has passed, even when that window is inside its chunk.
    With ``hold_c0g`` the ground amplitude is frozen at its initial value,
    which is the bookkeeping behind the perturbative steady state.
    """

    dt: float = 1e-3
    t_max: float = 200.0
    ss_window: float = 1.0
    ss_tol: float = 1e-8
    hold_c0g: bool = True

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (self.ss_window > 0.0 and math.isfinite(self.ss_window)):
            raise ValueError("ss_window must be positive and finite")
        if not (self.t_max >= self.ss_window and math.isfinite(self.t_max)):
            raise ValueError("t_max must be finite and at least ss_window")
        if not (self.ss_tol > 0.0 and math.isfinite(self.ss_tol)):
            raise ValueError("ss_tol must be positive and finite")

    @property
    def window_steps(self) -> int:
        return max(1, round(self.ss_window / self.dt))


def generator(
    omega,
    m,
    n,
    delta_e,
    j,
    theta,
    e_eg,
    hold_c0g: bool = True,
) -> np.ndarray:
    """Matrix A with dC/dt = A C, broadcast over any leading parameter shape.

    Scalar arguments give a plain (5, 5) matrix; array arguments of a common
    broadcast shape S give (*S, 5, 5).
    """
    omega, m, n, delta_e, j, theta, e_eg = np.broadcast_arrays(
        np.asarray(omega, dtype=complex),
        np.asarray(m, dtype=complex),
        np.asarray(n, dtype=complex),
        np.asarray(delta_e, dtype=complex),
        np.asarray(j, dtype=complex),
        np.asarray(theta, dtype=complex),
        np.asarray(e_eg, dtype=complex),
    )
    shape = omega.shape
    j_minus = j * np.exp(-1j * theta)
    j_plus = j * np.exp(1j * theta)
    a = np.zeros(shape + (5, 5), dtype=complex)
    # Row order and column order follow the components of AmplitudeState.
    if not hold_c0g:
        a[..., 0, 1] = omega
        a[..., 0, 2] = e_eg
    a[..., 1, 0] = omega
    a[..., 1, 1] = m
    a[..., 1, 2] = -j_minus
    a[..., 1, 3] = SQRT2 * omega
    a[..., 1, 4] = e_eg
    a[..., 2, 0] = e_eg
    a[..., 2, 1] = -j_plus
    a[..., 2, 2] = delta_e
    a[..., 2, 4] = omega
    a[..., 3, 1] = SQRT2 * omega
    a[..., 3, 3] = 2.0 * m
    a[..., 3, 4] = -SQRT2 * j_minus
    a[..., 4, 1] = e_eg
    a[..., 4, 2] = omega
    a[..., 4, 3] = -SQRT2 * j_plus
    a[..., 4, 4] = n
    return -1j * a


def generator_from_effective(
    eff: EffectiveParams, e_eg: float, hold_c0g: bool = True
) -> np.ndarray:
    return generator(
        eff.omega, eff.M, eff.N, eff.delta_e, eff.J, eff.theta, e_eg, hold_c0g
    )


def rk4_propagator(a: np.ndarray, dt: float) -> np.ndarray:
    """One-step RK4 map for a linear system: the quartic Taylor polynomial."""
    eye = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape).copy()
    term = eye.copy()
    out = eye
    for k in range(1, 5):
        term = (dt / k) * (term @ a)
        out = out + term
    return out


def _power_increments(inc1: np.ndarray, n: int) -> np.ndarray:
    """Given E_1 = M - I for each map M of a stack of shape (..., d, d),
    E_j = M^j - I for j = 1, ..., n, as shape (..., n, d, d).

    The doubling runs on the increments, E_(a+b) = E_a + E_b + E_a E_b, so
    each entry's rounding error is relative to the increment, not to 1.  For
    a map near the identity (an RK4 step, or a window of a slow mode) the
    powers themselves lose the increment's low digits at every doubling,
    the same digits every window, and a run advanced by them drifts from the
    step-by-step iteration by about one rounding per step.  The products
    E_1..E_k times E_b are one (k d, d) @ (d, d) product per map.
    """
    d = inc1.shape[-1]
    lead = inc1.shape[:-2]
    inc = np.empty(lead + (n, d, d), dtype=inc1.dtype)
    inc[..., 0, :, :] = inc1
    filled = 1
    while filled < n:
        take = min(filled, n - filled)
        last = inc[..., filled - 1 : filled, :, :].reshape(lead + (d, d))
        out = inc[..., filled : filled + take, :, :]
        np.matmul(
            inc[..., :take, :, :].reshape(lead + (take * d, d)),
            last,
            out=out.reshape(lead + (take * d, d)),
        )
        out += inc[..., :take, :, :]
        out += last[..., None, :, :]
        filled += take
    return inc


class Trajectory(Sequence[AmplitudeState]):
    """Recorded evolution: times, stacked amplitudes and the steady flag.

    ``slowest_decay`` is -max Re(lambda) over the eigenvalues of the
    generator's driven 4x4 block, in units of kappa: the rate at which the
    last transient dies out, so e^{-slowest_decay * t} bounds how far a run
    is from its steady state.  It is filled for ``hold_c0g`` runs, whose
    fixed point it governs, and is None otherwise.
    """

    def __init__(
        self,
        times: np.ndarray,
        amplitudes: np.ndarray,
        steady: bool,
        slowest_decay: float | None = None,
    ):
        self.times = times
        self.amplitudes = amplitudes
        self.steady = steady
        self.slowest_decay = slowest_decay

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trajectory(
                self.times[index], self.amplitudes[index], self.steady, self.slowest_decay
            )
        return AmplitudeState.from_vector(self.amplitudes[index], self.times[index])

    def __iter__(self) -> Iterator[AmplitudeState]:
        for i in range(len(self)):
            yield self[i]

    @property
    def final(self) -> AmplitudeState:
        return self[-1]

    def norm_squared(self) -> np.ndarray:
        # np.sum(axis=-1) adds the five amplitudes in this same order, but
        # reduces a 5-long axis slowly (see _window_steady).
        sq = np.abs(self.amplitudes) ** 2
        return sq[..., 0] + sq[..., 1] + sq[..., 2] + sq[..., 3] + sq[..., 4]


def _first_steady(cur: np.ndarray, prev: np.ndarray, ss_tol: float) -> int | None:
    """The first row of ``cur`` that passes the steady test against the row
    of ``prev`` a window earlier, or None if none does.

    The test takes the largest ratio over all amplitudes, so no row passes
    where one amplitude fails.  The rows are screened with the amplitude of
    the largest ratio in the last row, and the five-amplitude test runs only
    from the first row where that amplitude passes.
    """
    last = np.abs(cur[-1] - prev[-1]) / (np.abs(cur[-1]) + _NORM_EPS)
    k = int(np.argmax(last))
    c = cur[:, k]
    passed = np.abs(c - prev[:, k]) / (np.abs(c) + _NORM_EPS) < ss_tol
    if not passed.any():
        return None
    first = int(np.argmax(passed))
    passed = _window_steady(cur[first:], prev[first:], ss_tol)
    return first + int(np.argmax(passed)) if passed.any() else None


def evolve(
    initial: AmplitudeState,
    eff: EffectiveParams,
    e_eg: float,
    cfg: IntegratorConfig | None = None,
) -> Trajectory:
    """Integrate from ``initial`` until steady or t_max, recording every step.

    The run stops at the first step that passes the steady test of
    :class:`IntegratorConfig`, or raises :class:`NonFiniteState`, naming the
    time, at the first step at which the modulus of some amplitude is not
    finite, whichever comes first: the plain iteration's step either way.
    """
    cfg = cfg if cfg is not None else IntegratorConfig()
    a = generator_from_effective(eff, e_eg, cfg.hold_c0g)
    step = rk4_propagator(a, cfg.dt)
    slowest = None
    if cfg.hold_c0g:
        slowest = -float(np.max(np.linalg.eigvals(a[1:, 1:]).real))

    n_steps = math.ceil(cfg.t_max / cfg.dt - 1e-12)
    states = np.empty((n_steps + 1, 5), dtype=complex)
    states[0] = initial.as_vector()
    # Divergence is detected explicitly; keep numpy quiet about the
    # overflow that precedes the raise.
    with np.errstate(over="ignore", invalid="ignore"):
        stop = _fill_states(states, step, cfg, initial.t)
    last = n_steps if stop is None else stop
    times = np.arange(last + 1, dtype=float)
    times *= cfg.dt
    times += initial.t
    return Trajectory(times, states[: last + 1], stop is not None, slowest)


def _fill_states(
    states: np.ndarray, step: np.ndarray, cfg: IntegratorConfig, t0: float
) -> int | None:
    """Fill ``states`` row by row from its first under the RK4 step map;
    return the step of a steady stop, or None if the run fills every row.

    A chunk of up to ``_CHUNK_WINDOWS`` windows takes two products: the
    windows' starts x, S^w x, S^2w x, ... from one, every state from the
    stacked starts times the step powers S, ..., S^w laid end to end.  A
    chunk that :func:`_chunk_finite` cannot clear is refilled by
    :func:`_plain_iteration`.  The working arrays (the step powers, the
    steady test's temporaries) are freed when this returns, before
    :func:`evolve` allocates the times.
    """
    n_steps = len(states) - 1
    wsteps = cfg.window_steps
    width = min(wsteps, n_steps)
    starts = np.empty((_CHUNK_WINDOWS, 5), dtype=complex)
    powers = _power_increments(step - np.eye(5), width)
    # The windows' starts x, W x, W^2 x, ... (W = S^w) come from W^i - I,
    # exact to rounding of the increments; the states inside a window from
    # the powers themselves.
    grow = _power_increments(powers[-1], _CHUNK_WINDOWS - 1)
    powers.reshape(width, 25)[:, ::6] += 1.0
    # fill[c, 5j + r] is S^(j+1)[r, c] (a view, no copy), so x @ fill holds
    # the window's states from x laid end to end, row by row.
    fill = powers.reshape(-1, 5).T
    # Each state of a chunk is x_i @ fill, five complex products summed.
    scale = _product_scale(powers)
    for start in range(0, n_steps, _CHUNK_WINDOWS * width):
        stop = min(start + _CHUNK_WINDOWS * width, n_steps)
        whole, rest = divmod(stop - start, width)
        x = starts[: whole + (rest > 0)]
        x[0] = states[start]
        np.matmul(grow[: len(x) - 1], x[0], out=x[1:])
        x[1:] += x[0]
        if whole:
            rows = states[start + 1 : start + 1 + whole * width]
            np.matmul(x[:whole], fill, out=rows.reshape(whole, -1))
        if rest:
            rows = states[stop + 1 - rest : stop + 1]
            np.matmul(x[whole], fill[:, : 5 * rest], out=rows.reshape(-1))
        # A window's stored boundary row is the state it started from.
        states[start + width : stop : width] = x[1:]
        end = stop  # the last finite step of the chunk
        if not _chunk_finite(x, scale):
            finite = _plain_iteration(step, states[start], states[start + 1 : stop + 1])
            if not finite.all():
                end = start + int(np.argmin(finite))
        lo = max(start + 1, wsteps)
        if lo <= end:
            first = _first_steady(
                states[lo : end + 1], states[lo - wsteps : end + 1 - wsteps], cfg.ss_tol
            )
            if first is not None:
                return lo + first
        if end < stop:
            raise NonFiniteState(
                f"non-finite amplitude at t = {t0 + (end + 1) * cfg.dt:.6g}; reduce dt"
            )
    return None


def _product_scale(maps: np.ndarray) -> float:
    """10 max|M| + 1 over the real components of ``maps``: no real or
    imaginary part of M x + x, or of M x, with M one of the 5x5 maps, exceeds
    it times the largest part of x.  NaN if any part of the maps is."""
    return 10.0 * float(np.abs(maps.view(float)).max()) + 1.0


def _chunk_finite(x: np.ndarray, scale: float) -> bool:
    """Whether the bound clears a chunk: every part of its states is at most
    ``scale`` (see :func:`_product_scale`) times the largest part of its
    starting states ``x``, and a bound below ``_FINITE_BOUND`` makes every
    state finite.  False if any part of ``x`` or of the maps is not finite."""
    return float(np.abs(x.view(float)).max()) * scale < _FINITE_BOUND


def _plain_iteration(m: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` by the plain iteration from ``x`` and return which of its
    states are finite, by the modulus of every amplitude.

    Along the second-last axis of ``out`` each state is the map ``m`` times
    the one before, the first ``m`` times ``x``: :func:`evolve` passes its
    step map and a chunk of steps, :func:`steady_rk4` every set's window map
    and a chunk of every set's windows.
    """
    prev = x
    for i in range(out.shape[-2]):
        out[..., i, :] = np.matmul(m, prev[..., None])[..., 0]
        prev = out[..., i, :]
    return np.isfinite(np.abs(out)).all(axis=-1)


def _window_steady(states: np.ndarray, prev: np.ndarray, ss_tol: float) -> np.ndarray:
    """The steady test of each set (last axis: the amplitudes)."""
    ratio = np.abs(states - prev) / (np.abs(states) + _NORM_EPS)
    # np.maximum over the amplitude slices, not max(axis=-1): numpy reduces
    # a 5-long axis slowly (on a shared 2-CPU host, 41 us against 10 us on
    # a (32, 16, 5) array, 1.2 ms against 52 us on (16000, 5)).  Both are
    # exact and propagate NaN, so the test is the same.
    worst = np.maximum(ratio[..., 0], ratio[..., 1])
    for k in range(2, ratio.shape[-1]):
        np.maximum(worst, ratio[..., k], out=worst)
    return worst < ss_tol


def steady_rk4(
    effs: EffectiveParams | Sequence[EffectiveParams],
    e_eg: float,
    cfg: IntegratorConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Long-time amplitudes from vacuum for one or many parameter sets.

    Returns ``(states, steady)`` with states of shape (K, 5) and a boolean
    steady flag per parameter set.  The K sets advance together, one
    steady-test window at a time, and each set's steady test is checked at
    every window's end, so the answer matches :func:`evolve` at window
    resolution without storing trajectories.  The run stops after the first
    window at which every set has been steady, or at t_max.  It raises
    :class:`NonFiniteState` when the modulus of some amplitude is not finite
    at a window no later than that stop, naming the sets not finite at the
    first such window: the plain window-by-window iteration's rule.
    """
    cfg = cfg if cfg is not None else IntegratorConfig()
    single = isinstance(effs, EffectiveParams)
    eff_list = [effs] if single else list(effs)
    if not eff_list:
        return np.zeros((0, 5), dtype=complex), np.zeros(0, dtype=bool)

    stack = lambda attr: np.array([getattr(e, attr) for e in eff_list])
    a = generator(
        stack("omega"),
        stack("M"),
        stack("N"),
        stack("delta_e"),
        stack("J"),
        stack("theta"),
        e_eg,
        cfg.hold_c0g,
    )
    wsteps = cfg.window_steps
    step = rk4_propagator(a, cfg.dt)
    window = np.linalg.matrix_power(step, wsteps)

    n_windows = math.ceil(cfg.t_max / (wsteps * cfg.dt) - 1e-12)
    sets = len(eff_list)
    states = np.zeros((sets, 5), dtype=complex)
    states[:, 0] = 1.0
    steady = np.zeros(sets, dtype=bool)
    done = 0
    # As in evolve, divergence is detected explicitly.
    with np.errstate(over="ignore", invalid="ignore"):
        # inc[k, 5i + r, :] is row r of W_k^(i+1) - I for set k, so one
        # product with the starts gives every set's next window ends.
        inc = _power_increments(window - np.eye(5), min(_CHUNK_WINDOWS, n_windows))
        inc = inc.reshape(sets, -1, 5)
        scale = _product_scale(inc)
        while done < n_windows and not steady.all():
            count = min(_CHUNK_WINDOWS, n_windows - done)
            done += count
            ends = np.matmul(inc[:, : 5 * count], states[:, :, None]).reshape(sets, count, 5)
            ends += states[:, None]
            finite = None
            if not _chunk_finite(states, scale):
                finite = _plain_iteration(window, states, ends)
            prev = np.concatenate((states[:, None], ends[:, :-1]), axis=1)
            so_far = steady[:, None] | np.logical_or.accumulate(
                _window_steady(ends, prev, cfg.ss_tol), axis=1
            )
            # Stop after the first window at which every set has been
            # steady, else after the chunk's last.
            settled = np.all(so_far, axis=0)
            i = int(np.argmax(settled)) if settled.any() else count - 1
            if finite is not None and not finite[:, : i + 1].all():
                first = int(np.argmin(finite.all(axis=0)))
                bad_sets = np.nonzero(~finite[:, first])[0].tolist()
                raise NonFiniteState(
                    f"non-finite amplitudes for parameter sets {bad_sets}; reduce dt"
                )
            states, steady = ends[:, i], so_far[:, i]
    return states, steady


__all__ = [
    "AmplitudeState",
    "IntegratorConfig",
    "NonFiniteState",
    "Trajectory",
    "evolve",
    "generator",
    "generator_from_effective",
    "rk4_propagator",
    "steady_rk4",
    "vacuum_state",
]
