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

:func:`evolve` fills a long run in chunks that double from 16 windows up
to 128, so it costs its products plus a few chunk passes.  It evaluates
the steady test's margins at every 32nd step only, each on the amplitude
of the largest margin at its window's boundary row.  A bound on how far one
step of S can move them, with a slack for the rounding of the stored
states, rules out the steps between where a sample fails by more than
that; the exact test runs on the other steps in order, a few at a time, to
the first that passes, so a run stops at the same step as with the test at
every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import EffectiveParams, _point_inputs
from .steady_state import SQRT2, AmplitudeState

_NORM_EPS = 1e-12

#: Steady-test windows advanced per matrix product.  :func:`evolve` fills
#: its first chunk of this many windows' states at once and doubles each
#: later chunk up to ``_MAX_CHUNK_WINDOWS``.  :func:`steady_rk4` finds this
#: many window ends at once in every chunk: its batched window increments
#: grow with the chunk, and doubling its chunks too made the benchmark's
#: 32-set batch 2.2 times slower (2.8 ms against 1.2 ms, one BLAS thread on
#: a shared 2-CPU host).
_CHUNK_WINDOWS = 16

#: The longest chunk of :func:`evolve`, in windows.
_MAX_CHUNK_WINDOWS = 8 * _CHUNK_WINDOWS

#: A chunk's bound on its states' real and imaginary parts below which the
#: modulus of every amplitude is finite.
_FINITE_BOUND = 1e300

#: :func:`evolve` screens its steady test at every this many rows and runs
#: the exact test only where a bound on the steps between cannot rule it
#: out (see :func:`_first_steady`).
_SAMPLE_ROWS = 32

#: The most, relative to a bound on the rows it stores, by which a chunk of
#: :func:`evolve` departs from the exact iteration of its step map: 2^-40,
#: about 8000 unit roundoffs.  Measured in extended precision at the chunks
#: of 16 to 128 windows, the departure stays below 2.7 of them over 40
#: seeded runs (dt 1e-3 to 3e-2, windows of 50 to 1500 steps) and below 0.2
#: at the reference point and 1 kappa off it.
_ROW_ROUNDING = 2.0**-40


class NonFiniteState(ArithmeticError):
    """An amplitude became NaN or infinite during integration."""


def vacuum_state() -> AmplitudeState:
    """The atom in |g> with no photon, c0g = 1 and every other amplitude 0, at t = 0."""
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
    step-by-step iteration decides it: :func:`evolve` skips only steps that
    a bound from the test's margins at every 32nd step proves fail, and
    runs the exact test on the others in order up to the first that passes,
    however long its chunk; :func:`steady_rk4` stops after the first window
    at which every set has passed, even when that window is inside its
    chunk.
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
    """:func:`generator` at the coefficients of ``eff``, the drive ``e_eg``
    and ``hold_c0g``."""
    return generator(*_point_inputs(eff, e_eg), hold_c0g)


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

    @property
    def final(self) -> AmplitudeState:
        return self[-1]

    def norm_squared(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=-1)


def _first_steady(
    cur: np.ndarray,
    prev: np.ndarray,
    ss_tol: float,
    k: int | np.ndarray,
    limit: float | np.ndarray,
) -> int | None:
    """The first row of ``cur`` that passes the steady test against the row
    of ``prev`` a window earlier, or None if none does.

    The rows fall in gaps of ``_SAMPLE_ROWS``, each led by its sample row.
    A row fails the test where some amplitude's margin
    |d_m| - ss_tol (|c_m| + 1e-12) is positive (d = cur - prev, c = cur);
    where amplitude k's margin at a sample exceeds ``limit`` (k and the
    limit one value, or one a sample; see :func:`_screen_limits`), it is
    positive at every row of the gap.  The five-amplitude test runs on the
    other gaps in order, on 1, 1, 2, 4, ... of them at a time, and stops at
    the first that holds a passing row, so it tests fewer than twice the
    gaps from the first it could not rule out up to that row's.  An
    infinite or NaN limit rules out no gap.
    """
    # The flat index of each sample's amplitude in cur and in prev.
    samples = np.arange(0, 5 * len(cur), 5 * _SAMPLE_ROWS)
    samples += k
    c = np.take(cur, samples)
    margin = np.abs(c - np.take(prev, samples))
    margin -= ss_tol * np.abs(c)
    gaps = np.flatnonzero(~(margin > limit))
    offsets = np.arange(_SAMPLE_ROWS)
    done, take = 0, 1
    while done < len(gaps):
        rows = (gaps[done : done + take, None] * _SAMPLE_ROWS + offsets).reshape(-1)
        if rows[-1] >= len(cur):
            rows = rows[rows < len(cur)]
        passed = _window_steady(
            np.take(cur, rows, axis=0), np.take(prev, rows, axis=0), ss_tol
        )
        if passed.any():
            return int(rows[np.argmax(passed)])
        done += take
        take = done
    return None


def _screen_limits(
    ends: np.ndarray, lift: np.ndarray, ss_tol: float, reach: float, rounding: float
) -> tuple[np.ndarray, np.ndarray]:
    """For each window of a chunk, the amplitude to screen its rows with and
    the limit its margin must exceed at a sample (see :func:`_first_steady`).

    ``ends`` are the window boundary rows b_0, b_1, ... from the last one
    before the chunk's first tested row, and ``lift`` is [I, (S - I)^T] for
    the step map S.  A stored row of window i is S^j b_i, with its partner a
    window earlier S^j b_(i-1), and p, the largest row sum of |S^j| over a
    window, bounds it.  From a sample s, over the steps t < ``_SAMPLE_ROWS``
    of its gap, margin m falls by at most the sum of |(S^t u)_m| +
    ss_tol |(S^t v)_m| with u = (S - I) d(s) = S^j (S - I)(b_i - b_(i-1))
    and v = (S - I) c(s) = S^j (S - I) b_i.  With q the largest row sum of
    |S^t| over the gap, that is at most ``reach`` = ``_SAMPLE_ROWS`` q p
    times the largest entry of |(S - I)(b_i - b_(i-1))| + ss_tol |(S - I) b_i|.
    ``rounding`` times the largest ||b_i||_inf bounds what the rounding of
    the stored rows adds (see :func:`_screen_constants`).  Entry i - 1 of
    both arrays is window i's.  Its amplitude is the one with the largest
    margin |b_i - b_(i-1)| - ss_tol |b_i| at its boundary row b_i; any
    amplitude will do, since the limit bounds the fall of every margin.
    """
    lifted = ends @ lift
    size = np.abs(lifted)
    change = np.abs(lifted[1:] - lifted[:-1])
    margins = change[:, :5] - ss_tol * size[1:, :5]
    change[:, 5:] += ss_tol * size[1:, 5:]
    limits = change[:, 5:].max(axis=1)
    limits *= reach
    limits += ss_tol * _NORM_EPS + rounding * float(size[:, :5].max())
    return margins.argmax(axis=1), limits


def _screen_constants(
    step: np.ndarray, powers: np.ndarray, ss_tol: float
) -> tuple[float, float]:
    """``reach`` and ``rounding`` of :func:`_screen_limits` for a run with
    step map S and step powers S, ..., S^w (``powers``).

    The row sums of |Re| + |Im| over the powers bound p (which is at least
    1, for S^0) and, over the first ``_SAMPLE_ROWS`` - 1 powers, q; with
    w < ``_SAMPLE_ROWS`` - 1, q is at most p^ceil((_SAMPLE_ROWS - 1) / w).
    A stored row departs from the exact iteration of S from its window's
    boundary row, and a boundary row from S^w times the one before, by at
    most E = ``_ROW_ROUNDING`` p max ||b_i||_inf.  The rows of a gap, which
    may cross into the next window, and their partners then depart from
    the exact iteration from the sample by at most (1 + 2 q) E, and (S - I)
    of a sample's d and c by at most ||S - I||_inf 2E beyond the bound on
    it; a margin takes 2 + ss_tol times such a departure.
    """
    sums = np.abs(powers.view(float)).reshape(-1, 10) @ np.ones(10)
    p = max(float(sums.max()), 1.0)
    near = max(float(sums[: 5 * (_SAMPLE_ROWS - 1)].max()), 1.0)
    q = float(np.float64(near) ** math.ceil((_SAMPLE_ROWS - 1) / len(powers)))
    reach = _SAMPLE_ROWS * q * p
    beta = float(np.abs(step - np.eye(5)).sum(axis=1).max())
    departs = 1.0 + 2.0 * q + 2.0 * beta * reach
    return reach, _ROW_ROUNDING * p * (2.0 + ss_tol) * departs


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
    if initial.t:  # adding a zero start leaves every time as it is
        times += initial.t
    return Trajectory(times, states[: last + 1], stop is not None, slowest)


def _fill_states(
    states: np.ndarray, step: np.ndarray, cfg: IntegratorConfig, t0: float
) -> int | None:
    """Fill ``states`` row by row from its first under the RK4 step map;
    return the step of a steady stop, or None if the run fills every row.

    A chunk of windows takes two products: the windows' starts x, S^w x,
    S^2w x, ... from one, every state from the stacked starts times the
    step powers S, ..., S^w laid end to end.  The first chunk holds
    ``_CHUNK_WINDOWS`` windows and each later one twice the one before, up
    to ``_MAX_CHUNK_WINDOWS``, so a 200-window run takes four chunks (16,
    32, 64 and 88 windows); the window increments are built up to the
    longest chunk the run takes.  A chunk that :func:`_chunk_finite` cannot
    clear is refilled by :func:`_plain_iteration`.  The steady test samples
    a chunk's rows, each with the amplitude and limit that
    :func:`_screen_limits` takes for its window from the window boundary
    rows, and runs in full, in order, on the gaps between samples that the
    limit cannot rule out, to the first that passes (:func:`_first_steady`);
    in a refilled chunk, and in the one after it, whose partner rows a
    window earlier the refilled one holds, it rules out none.  The working
    arrays (the step powers, the steady test's temporaries) are freed when
    this returns, before :func:`evolve` allocates the times.
    """
    n_steps = len(states) - 1
    wsteps = cfg.window_steps
    width = min(wsteps, n_steps)
    # Each chunk's windows; the last may end in a partial window.
    counts = []
    left, size = -(-n_steps // width), _CHUNK_WINDOWS
    while left > 0:
        counts.append(min(size, left))
        left -= size
        size = min(2 * size, _MAX_CHUNK_WINDOWS)
    longest = max(counts + [_CHUNK_WINDOWS])
    starts = np.empty((longest, 5), dtype=complex)
    powers = _power_increments(step - np.eye(5), width)
    # The windows' starts x, W x, W^2 x, ... (W = S^w) come from W^i - I,
    # exact to rounding of the increments; the states inside a window from
    # the powers themselves.
    grow = _power_increments(powers[-1], longest - 1)
    powers.reshape(width, 25)[:, ::6] += 1.0
    # fill[c, 5j + r] is S^(j+1)[r, c] (a view, no copy), so x @ fill holds
    # the window's states from x laid end to end, row by row.
    fill = powers.reshape(-1, 5).T
    # Each state of a chunk is x_i @ fill, five complex products summed.
    scale = _product_scale(powers)
    lift = np.concatenate((np.eye(5), (step - np.eye(5)).T), axis=1)
    reach, rounding = _screen_constants(step, powers, cfg.ss_tol)
    last_cleared = True
    stop = 0
    for count in counts:
        start, stop = stop, min(stop + count * width, n_steps)
        whole, rest = divmod(stop - start, width)
        x = starts[:count]
        x[0] = states[start]
        np.matmul(grow[: count - 1], x[0], out=x[1:])
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
        cleared = _chunk_finite(x, scale)
        if not cleared:
            finite = _plain_iteration(step, states[start], states[start + 1 : stop + 1])
            if not finite.all():
                end = start + int(np.argmin(finite))
        lo = max(start + 1, wsteps)
        if lo <= end:
            base = max(start - wsteps, 0)
            ks, limits = _screen_limits(
                states[base : end + 1 : wsteps], lift, cfg.ss_tol, reach, rounding
            )
            # The window of each sample, counted from the second boundary row.
            window = np.arange(lo - base, end + 1 - base, _SAMPLE_ROWS) // wsteps - 1
            limit = limits[window]
            if not (cleared and last_cleared):
                limit = math.inf
            first = _first_steady(
                states[lo : end + 1],
                states[lo - wsteps : end + 1 - wsteps],
                cfg.ss_tol,
                ks[window],
                limit,
            )
            if first is not None:
                return lo + first
        last_cleared = cleared
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
    eff_list = [effs] if isinstance(effs, EffectiveParams) else list(effs)
    if not eff_list:
        return np.zeros((0, 5), dtype=complex), np.zeros(0, dtype=bool)

    a = generator(*np.array([_point_inputs(e, e_eg) for e in eff_list]).T, cfg.hold_c0g)
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
