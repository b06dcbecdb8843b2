"""Time evolution of the weak-driving amplitude equations.

The effective non-Hermitian Hamiltonian (cavity loss folded into the
single- and two-photon denominators) closes on five basis amplitudes

    c0g  |0, g>     c1g  |1, g>     c0e  |0, e>
    c2g  |2, g>     c1e  |1, e>

and the equations of motion are linear with constant coefficients, so a
classical fixed-step fourth-order Runge-Kutta step is the exact quartic
Taylor polynomial of the true propagator.  The integrator exploits that:
it builds the 5x5 step map S once and precomputes S, S^2, ..., S^w for one
steady-test window of w steps, stored by column.  A window is then five
scaled column adds from its starting state, one summed finite check, and
a steady test that looks first at the amplitude that blocked the previous
window.  The result agrees with the step-by-step
RK4 iteration to rounding, not bit for bit, and stops at the same step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .params import EffectiveParams
from .steady_state import AmplitudeState

SQRT2 = math.sqrt(2.0)

#: Order of the amplitude components in every vector/matrix in this module.
BASIS_LABELS = ("c0g", "c1g", "c0e", "c2g", "c1e")

_NORM_EPS = 1e-12


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
    step-by-step iteration decides it: :func:`evolve` screens a window with
    one amplitude's test only to skip windows in which no step can pass.
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
        if not (self.t_max >= self.ss_window):
            raise ValueError("t_max must be at least ss_window")
        if not (self.ss_tol > 0.0):
            raise ValueError("ss_tol must be positive")

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
    # Row order and column order follow BASIS_LABELS.
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


def step_powers(step: np.ndarray, n: int) -> np.ndarray:
    """S, S^2, ..., S^n stacked as shape (n, d, d), by repeated doubling.

    Entry j is S^(j+1); each doubling is one batched product, so the cost
    is about log2(n) numpy calls.
    """
    powers = np.empty((n,) + step.shape, dtype=step.dtype)
    powers[0] = step
    filled = 1
    while filled < n:
        take = min(filled, n - filled)
        np.matmul(powers[:take], powers[filled - 1], out=powers[filled : filled + take])
        filled += take
    return powers


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
        return np.sum(np.abs(self.amplitudes) ** 2, axis=-1)

    def to_csv(self, path: str | Path) -> None:
        """Write t, the real/imaginary amplitude parts and the squared norm."""
        header = ["t"]
        for label in BASIS_LABELS:
            header.extend([f"{label}_re", f"{label}_im"])
        header.append("norm2")
        lines = [",".join(header)]
        norms = self.norm_squared()
        for i, t in enumerate(self.times):
            row = [repr(float(t))]
            for c in self.amplitudes[i]:
                row.extend([repr(float(c.real)), repr(float(c.imag))])
            row.append(repr(float(norms[i])))
            lines.append(",".join(row))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def evolve(
    initial: AmplitudeState,
    eff: EffectiveParams,
    e_eg: float,
    cfg: IntegratorConfig | None = None,
) -> Trajectory:
    """Integrate from ``initial`` until steady or t_max, recording every step.

    Each steady-test window of steps is formed from the window's starting
    state and the precomputed step powers; the finite check and the steady
    test then run over the window's states, and the first step that fails
    the one or passes the other ends the run.
    """
    cfg = cfg if cfg is not None else IntegratorConfig()
    a = generator_from_effective(eff, e_eg, cfg.hold_c0g)
    step = rk4_propagator(a, cfg.dt)
    slowest = None
    if cfg.hold_c0g:
        slowest = -float(np.max(np.linalg.eigvals(a[1:, 1:]).real))

    n_steps = math.ceil(cfg.t_max / cfg.dt - 1e-12)
    wsteps = cfg.window_steps
    states = np.empty((n_steps + 1, 5), dtype=complex)
    states[0] = initial.as_vector()
    t0 = initial.t

    steady = False
    last = n_steps
    # The amplitude whose own test is tried first: the one that failed
    # last.  Where it fails at every step of a window no step can pass,
    # since the test takes the largest ratio over all amplitudes.
    blocker = 0
    # Divergence is detected explicitly below; keep numpy quiet about the
    # overflow that precedes the raise.
    with np.errstate(over="ignore", invalid="ignore"):
        # columns[j, i] is column j of S^(i+1), so a window is five scaled
        # column adds over contiguous rows: about a third of the time of
        # one batched (w, 5, 5) @ (5,) product.
        columns = np.moveaxis(step_powers(step, min(wsteps, n_steps)), 2, 0).copy()
        width = columns.shape[1]
        # Reused by every add; a fresh temporary each time is measurably slower.
        scaled = np.empty((width, 5), dtype=complex)
        for start in range(0, n_steps, width):
            stop = min(start + width, n_steps)
            n = stop - start
            block = states[start + 1 : stop + 1]
            x = states[start]
            np.multiply(columns[0, :n], x[0], out=block)
            for j in range(1, 5):
                np.add(block, np.multiply(columns[j, :n], x[j], out=scaled[:n]), out=block)
            end = stop  # the last finite step of the window
            if not np.isfinite(block.view(float).sum()):
                # A power can overflow a step or more before the state it
                # maps to, and the sum of a finite window can overflow;
                # redo the window step by step so a failure is reported
                # at the step the plain iteration fails.
                for k in range(start + 1, stop + 1):
                    states[k] = step @ states[k - 1]
                finite = np.all(np.isfinite(block.view(float)), axis=1)
                if not finite.all():
                    end = start + int(np.argmin(finite))
            lo = max(start + 1, wsteps)
            if lo <= end:
                cur = states[lo : end + 1]
                prev = states[lo - wsteps : end + 1 - wsteps]
                c = cur[:, blocker]
                passed = np.abs(c - prev[:, blocker]) / (np.abs(c) + _NORM_EPS) < cfg.ss_tol
                if passed.any():
                    first = int(np.argmax(passed))
                    cur, prev = cur[first:], prev[first:]
                    ratio = np.abs(cur - prev) / (np.abs(cur) + _NORM_EPS)
                    passed = np.max(ratio, axis=1) < cfg.ss_tol
                    if passed.any():
                        steady = True
                        last = lo + first + int(np.argmax(passed))
                        break
                    blocker = int(np.argmax(ratio[-1]))
            if end < stop:
                raise NonFiniteState(
                    f"non-finite amplitude at t = {t0 + (end + 1) * cfg.dt:.6g}; reduce dt"
                )
    times = t0 + cfg.dt * np.arange(last + 1)
    return Trajectory(times, states[: last + 1], steady, slowest)


def steady_rk4(
    effs: EffectiveParams | Sequence[EffectiveParams],
    e_eg: float,
    cfg: IntegratorConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Long-time amplitudes from vacuum for one or many parameter sets.

    Returns ``(states, steady)`` with states of shape (K, 5) and a boolean
    steady flag per parameter set.  The steady criterion is checked window
    by window, so the answer matches :func:`evolve` at window resolution
    without storing trajectories; K parameter sets advance together.
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
    states = np.zeros((len(eff_list), 5), dtype=complex)
    states[:, 0] = 1.0
    steady = np.zeros(len(eff_list), dtype=bool)
    # As in evolve, divergence is detected explicitly.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_windows):
            prev = states
            states = np.matmul(window, prev[:, :, None])[:, :, 0]
            # One reduction screens the window; the sum of finite amplitudes
            # can overflow, so only the per-set check decides.
            if not np.isfinite(states.view(float).sum()):
                bad = ~np.all(np.isfinite(states.view(float)), axis=1)
                if bad.any():
                    bad_sets = np.nonzero(bad)[0].tolist()
                    raise NonFiniteState(
                        f"non-finite amplitudes for parameter sets {bad_sets}; reduce dt"
                    )
            delta = np.abs(states - prev)
            scale = np.abs(states) + _NORM_EPS
            steady |= np.max(delta / scale, axis=1) < cfg.ss_tol
            if bool(np.all(steady)):
                break
    return states, steady


__all__ = [
    "AmplitudeState",
    "BASIS_LABELS",
    "IntegratorConfig",
    "NonFiniteState",
    "Trajectory",
    "evolve",
    "generator",
    "generator_from_effective",
    "rk4_propagator",
    "steady_rk4",
    "step_powers",
    "vacuum_state",
]
