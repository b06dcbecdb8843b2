"""Time evolution of the weak-driving amplitude equations.

The effective non-Hermitian Hamiltonian (cavity loss folded into the
single- and two-photon denominators) closes on five basis amplitudes

    c0g  |0, g>     c1g  |1, g>     c0e  |0, e>
    c2g  |2, g>     c1e  |1, e>

and the equations of motion are linear with constant coefficients, so a
classical fixed-step fourth-order Runge-Kutta step is the exact quartic
Taylor polynomial of the true propagator.  The integrator exploits that:
it builds the 5x5 step map S once, precomputes S, S^2, ..., S^w for one
steady-test window of w steps, and advances a whole window per batched
matrix-vector product.  The result agrees with the step-by-step RK4
iteration to rounding, not bit for bit.
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
    the large amplitudes settled long before.  With
    ``hold_c0g`` the ground amplitude is frozen at its initial value, which
    is the bookkeeping behind the perturbative steady state.
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
    """Recorded evolution: times, stacked amplitudes and the steady flag."""

    def __init__(self, times: np.ndarray, amplitudes: np.ndarray, steady: bool):
        self.times = times
        self.amplitudes = amplitudes
        self.steady = steady

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trajectory(self.times[index], self.amplitudes[index], self.steady)
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

    Each steady-test window of steps is one batched product of the
    precomputed step powers with the window's starting state; the finite
    check and the steady test then run over the window's states, and the
    first step that fails the one or passes the other ends the run.
    """
    cfg = cfg if cfg is not None else IntegratorConfig()
    a = generator_from_effective(eff, e_eg, cfg.hold_c0g)
    step = rk4_propagator(a, cfg.dt)

    n_steps = math.ceil(cfg.t_max / cfg.dt - 1e-12)
    wsteps = cfg.window_steps
    states = np.empty((n_steps + 1, 5), dtype=complex)
    states[0] = initial.as_vector()
    t0 = initial.t

    steady = False
    last = n_steps
    # Divergence is detected explicitly below; keep numpy quiet about the
    # overflow that precedes the raise.
    with np.errstate(over="ignore", invalid="ignore"):
        powers = step_powers(step, min(wsteps, n_steps))
        for start in range(0, n_steps, len(powers)):
            stop = min(start + len(powers), n_steps)
            block = states[start + 1 : stop + 1]
            np.matmul(powers[: stop - start], states[start], out=block)
            finite = np.all(np.isfinite(block.view(float)), axis=1)
            if not finite.all():
                # A power can overflow a step or more before the state it
                # maps to; redo the window step by step so the failure is
                # reported at the step the plain iteration fails.
                for k in range(start + 1, stop + 1):
                    states[k] = step @ states[k - 1]
                finite = np.all(np.isfinite(block.view(float)), axis=1)
            done = ~finite
            lo = max(start + 1, wsteps)
            if lo <= stop:
                cur = states[lo : stop + 1]
                delta = np.abs(cur - states[lo - wsteps : stop + 1 - wsteps])
                scale = np.abs(cur) + _NORM_EPS
                done[lo - start - 1 :] |= np.max(delta / scale, axis=1) < cfg.ss_tol
            if done.any():
                k = start + 1 + int(np.argmax(done))
                if not finite[k - start - 1]:
                    raise NonFiniteState(
                        f"non-finite amplitude at t = {t0 + k * cfg.dt:.6g}; reduce dt"
                    )
                steady = True
                last = k
                break
    times = t0 + cfg.dt * np.arange(last + 1)
    return Trajectory(times, states[: last + 1], steady)


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
    for _ in range(n_windows):
        prev = states
        states = np.einsum("kij,kj->ki", window, prev)
        if not np.all(np.isfinite(states.view(float))):
            bad = ~np.all(np.isfinite(states.view(float)).reshape(len(eff_list), -1), axis=1)
            raise NonFiniteState(
                f"non-finite amplitudes for parameter sets {np.nonzero(bad)[0].tolist()}; reduce dt"
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
