"""Un-eliminated three-level model used as an oracle for the effective one.

In the rotating frame the Hamiltonian keeps two explicitly time-dependent
phases, e^{-i delta_p t} on the cavity-atom coupling and
e^{+i (delta_he + delta_eg) t} on the |h> <-> |e> drive, so no strict
steady state exists.  Observables are therefore time-averaged over the
slowest explicit phase period after the cavity transient has decayed.
Cavity loss enters as -i kappa/2 per photon; spontaneous emission of |h>
is excluded, consistent with the large-detuning regime where |h> is
barely populated.

When the upper-leg drive is Raman resonant, delta_he + delta_eg = delta_p
(the default of ``SystemParams``), both phases are undone by one frame
change: H(t) = U(t) H(0) U(t)^dagger with U(t) = e^{i delta_p t} on every
|h> state and 1 elsewhere.  The RK4 step from t_k = k dt is then
U(t_k) R0 U(t_k)^dagger, with R0 the step from t = 0, so y_k =
U(t_k)^dagger x_k obeys the constant recurrence y_{k+1} = Q y_k with
Q = U(dt)^dagger R0, and ``FullModel.run`` advances by powers of Q.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import steady_state
from .dynamics import step_powers
from .params import (
    TAU,
    Direction,
    RegimeWarning,
    SystemParams,
)

LEVELS = ("g", "e", "h")

#: Reconstruction agreement demanded between stored frequencies and the
#: detunings they were built from.
DETUNING_RECONSTRUCTION_TOL = 1e-12

MAX_N_MAX = 4
VALIDATE_REGIME_MIN = 5.0

#: Steps per block in ``FullModel.run``: generator matrices assembled at
#: once on the stepping path, precomputed powers of Q on the frame path.
_BLOCK_STEPS = 4096


class NotConverged(RuntimeError):
    """Consecutive time-averaging windows disagree beyond the tolerance."""


def state_index(n: int, level: str) -> int:
    return 3 * n + LEVELS.index(level)


@dataclass(frozen=True)
class FullModelParams:
    """Lab-frame frequencies plus drives for the three-level simulation.

    Frequencies are stored absolutely (in units of kappa) so that the
    rotating-frame detunings are derived quantities; ``from_system_params``
    picks arbitrary reference frequencies and verifies the round trip.
    """

    omega_c: float
    omega_e: float
    omega_h: float
    omega_p: float
    omega_he: float
    omega_eg: float
    kappa: float = 1.0
    kappa1: float = 1.0
    kappa2: float = 1.0
    g: float = 0.0
    e_he: float = 0.0
    e_eg: float = 0.0
    b_in: float = 0.0
    phi_p: float = 0.0
    phi_he: float = 0.0
    phi_eg: float = 0.0
    direction: Direction = Direction.FORWARD
    n_max: int = 2

    def __post_init__(self) -> None:
        if not 1 <= self.n_max <= MAX_N_MAX:
            raise ValueError(f"n_max must be in [1, {MAX_N_MAX}], got {self.n_max}")
        if self.kappa <= 0.0 or self.kappa1 <= 0.0 or self.kappa2 <= 0.0:
            raise ValueError("decay rates must be positive")

    @property
    def delta_c(self) -> float:
        return self.omega_c - self.omega_p

    @property
    def delta_p(self) -> float:
        return self.omega_h - self.omega_p

    @property
    def delta_he(self) -> float:
        return self.omega_h - self.omega_e - self.omega_he

    @property
    def delta_eg(self) -> float:
        return self.omega_e - self.omega_eg

    @property
    def kappa_in(self) -> float:
        return self.kappa1 if self.direction is Direction.FORWARD else self.kappa2

    @property
    def omega(self) -> float:
        return math.sqrt(self.kappa_in) * self.b_in

    @property
    def dim(self) -> int:
        return 3 * (self.n_max + 1)

    @classmethod
    def from_system_params(
        cls,
        params: SystemParams,
        n_max: int = 2,
        *,
        omega_p_base: float = 1000.0,
        omega_e_base: float = 50.0,
    ) -> "FullModelParams":
        delta_eg = params.delta_eg
        delta_he = params.delta_he_effective
        omega_p = omega_p_base
        omega_e = omega_e_base
        built = cls(
            omega_c=omega_p + params.delta_c,
            omega_e=omega_e,
            omega_h=omega_p + params.delta_p,
            omega_p=omega_p,
            omega_he=(omega_p + params.delta_p) - omega_e - delta_he,
            omega_eg=omega_e - delta_eg,
            kappa=params.kappa,
            kappa1=params.kappa1,
            kappa2=params.kappa2,
            g=params.g,
            e_he=params.e_he,
            e_eg=params.e_eg,
            b_in=params.b_in,
            phi_p=params.phi_p,
            phi_he=params.phi_he,
            phi_eg=params.phi_eg,
            direction=params.direction,
            n_max=n_max,
        )
        checks = {
            "delta_c": (built.delta_c, params.delta_c),
            "delta_p": (built.delta_p, params.delta_p),
            "delta_he": (built.delta_he, delta_he),
            "delta_eg": (built.delta_eg, delta_eg),
        }
        scale = max(abs(omega_p_base), abs(omega_e_base), 1.0)
        for name, (got, want) in checks.items():
            if abs(got - want) > DETUNING_RECONSTRUCTION_TOL * scale:
                raise ValueError(
                    f"frequency construction failed to reproduce {name}: "
                    f"{got!r} != {want!r}"
                )
        return built


class FullModel:
    """Dense time-dependent generator for the truncated three-level model.

    The matrix splits into a static part (detunings, decay, cavity drive,
    microwave) plus two rotating blocks whose phases are the only time
    dependence; ``hamiltonian`` reassembles the sum at any t.
    ``raman_resonant`` records whether delta_he + delta_eg equals delta_p
    to the frequency round-off that ``FullModelParams.from_system_params``
    accepts; then H(t) = U(t) H(0) U(t)^dagger (see the module docstring).
    """

    def __init__(self, params: FullModelParams) -> None:
        self.params = params
        dim = params.dim
        n_max = params.n_max

        static = np.zeros((dim, dim), dtype=complex)
        cavity_block = np.zeros((dim, dim), dtype=complex)
        atom_block = np.zeros((dim, dim), dtype=complex)

        half_loss = 0.5j * params.kappa
        drive = params.omega * cmath.exp(1j * params.phi_p)
        microwave = params.e_eg * cmath.exp(1j * params.phi_eg)
        pump = params.e_he * cmath.exp(1j * params.phi_he)

        for n in range(n_max + 1):
            for level in LEVELS:
                k = state_index(n, level)
                static[k, k] = params.delta_c * n - half_loss * n
                if level == "e":
                    static[k, k] += params.delta_eg
            # microwave E_eg |e><g| + h.c., photon-number diagonal
            static[state_index(n, "e"), state_index(n, "g")] += microwave
            static[state_index(n, "g"), state_index(n, "e")] += microwave.conjugate()
            # |h><e| drive, rotating at delta_he + delta_eg
            atom_block[state_index(n, "h"), state_index(n, "e")] = pump
            if n < n_max:
                # cavity drive Omega a^dag + h.c.
                root = math.sqrt(n + 1)
                for level in LEVELS:
                    hi = state_index(n + 1, level)
                    lo = state_index(n, level)
                    static[hi, lo] += drive * root
                    static[lo, hi] += drive.conjugate() * root
                # g a^dag |g><h|, rotating at -delta_p
                cavity_block[state_index(n + 1, "g"), state_index(n, "h")] = (
                    params.g * root
                )

        self._static = static
        self._cavity = cavity_block
        self._atom = atom_block
        self.delta2 = params.delta_he + params.delta_eg
        scale = max(
            abs(params.omega_c),
            abs(params.omega_e),
            abs(params.omega_h),
            abs(params.omega_p),
            abs(params.omega_he),
            abs(params.omega_eg),
            1.0,
        )
        self.raman_resonant = (
            abs(self.delta2 - params.delta_p) <= DETUNING_RECONSTRUCTION_TOL * scale
        )

    def hamiltonian(self, t: float) -> np.ndarray:
        """Non-Hermitian H(t) including the -i kappa/2 photon decay."""
        ph_c = cmath.exp(-1j * self.params.delta_p * t)
        ph_a = cmath.exp(1j * self.delta2 * t)
        return (
            self._static
            + ph_c * self._cavity
            + np.conj(ph_c) * self._cavity.conj().T
            + ph_a * self._atom
            + np.conj(ph_a) * self._atom.conj().T
        )

    def rhs(self, state: np.ndarray, t: float) -> np.ndarray:
        return -1j * (self.hamiltonian(t) @ np.asarray(state, dtype=complex))

    def _matrices_at(self, times: np.ndarray) -> np.ndarray:
        """Generator stack -i H(t) for a vector of times, shape (T, dim, dim)."""
        ph_c = np.exp(-1j * self.params.delta_p * times)
        ph_a = np.exp(1j * self.delta2 * times)
        h = (
            self._static[None, :, :]
            + ph_c[:, None, None] * self._cavity[None, :, :]
            + np.conj(ph_c)[:, None, None] * self._cavity.conj().T[None, :, :]
            + ph_a[:, None, None] * self._atom[None, :, :]
            + np.conj(ph_a)[:, None, None] * self._atom.conj().T[None, :, :]
        )
        return -1j * h

    def run(
        self,
        t_end: float,
        dt: float = 1e-3,
        *,
        initial: np.ndarray | None = None,
        collect_from: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fixed-step RK4 integration from |0, g>.

        Returns (final_state, collect_times, collected_states); collection
        starts at ``collect_from`` (None collects nothing) and never
        includes step 0.  When ``raman_resonant``, the run follows the
        constant frame recurrence y_{k+1} = Q y_k: it jumps to the first
        collected step with one matrix power, advances through the
        collected steps in blocks of precomputed powers of Q, and rotates
        back by U(t_k).  Otherwise generator matrices are pre-assembled on
        the half-step grid in blocks and the steps run one by one.  Both
        raise ArithmeticError once the state is no longer finite.
        """
        if dt <= 0.0 or t_end <= 0.0:
            raise ValueError("dt and t_end must be positive")
        dim = self.params.dim
        if initial is None:
            state = np.zeros(dim, dtype=complex)
            state[state_index(0, "g")] = 1.0
        else:
            state = np.asarray(initial, dtype=complex).copy()
            if state.shape != (dim,):
                raise ValueError(f"initial state must have shape ({dim},)")

        n_steps = int(round(t_end / dt))
        first_collect = n_steps + 1
        if collect_from is not None:
            first_collect = max(1, int(math.ceil(collect_from / dt)))
        integrate = self._run_frame if self.raman_resonant else self._run_steps
        final, collected = integrate(state, n_steps, dt, first_collect)
        times = dt * np.arange(first_collect, n_steps + 1)
        states = (
            np.concatenate(collected)
            if collected
            else np.zeros((0, dim), dtype=complex)
        )
        return final, times, states

    def _run_steps(
        self, state: np.ndarray, n_steps: int, dt: float, first_collect: int
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        collected = []
        half = dt / 2.0
        for start in range(0, n_steps, _BLOCK_STEPS):
            stop = min(start + _BLOCK_STEPS, n_steps)
            times = start * dt + half * np.arange(2 * (stop - start) + 1)
            gen = self._matrices_at(times)
            for k in range(stop - start):
                state = _rk4_step(gen[2 * k : 2 * k + 3], state, dt)
                if start + k + 1 >= first_collect:
                    collected.append(state[None])
            _check_finite(state, stop * dt)
        return state, collected

    def _run_frame(
        self, state: np.ndarray, n_steps: int, dt: float, first_collect: int
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        # U(t) = exp(rate * t) elementwise: e^{i delta_p t} on |h> states.
        in_h = np.tile(np.array(LEVELS) == "h", self.params.n_max + 1)
        rate = np.where(in_h, 1j * self.params.delta_p, 0.0)
        r0 = _rk4_step(
            self._matrices_at(np.array([0.0, dt / 2.0, dt])),
            np.eye(self.params.dim, dtype=complex),
            dt,
        )
        q = np.exp(-rate * dt)[:, None] * r0
        jump = min(first_collect, n_steps + 1) - 1
        y = np.linalg.matrix_power(q, jump) @ state
        _check_finite(y, jump * dt)
        collected = []
        if jump < n_steps:
            powers = step_powers(q, min(_BLOCK_STEPS, n_steps - jump))
            for start in range(jump, n_steps, len(powers)):
                stop = min(start + len(powers), n_steps)
                ys = powers[: stop - start] @ y
                y = ys[-1]
                _check_finite(y, stop * dt)
                times = dt * np.arange(start + 1, stop + 1)
                collected.append(np.exp(np.outer(times, rate)) * ys)
            return collected[-1][-1], collected
        return np.exp(rate * (n_steps * dt)) * y, collected


def _rk4_step(gen: np.ndarray, x: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of dx/dt = A(t) x from generators A at t,
    t + dt/2 and t + dt; ``x`` may be a vector or a matrix of columns."""
    a0, a1, a2 = gen
    half = dt / 2.0
    k1 = a0 @ x
    k2 = a1 @ (x + half * k1)
    k3 = a1 @ (x + half * k2)
    k4 = a2 @ (x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _check_finite(state: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(state)):
        raise ArithmeticError(
            f"full-model state became non-finite near t = {t:.3f}"
        )


def photon_occupations(states: np.ndarray, n_max: int) -> dict[int, np.ndarray]:
    """Normalized P_n(t) summed over atomic levels, keyed by photon number."""
    prob = np.abs(states) ** 2
    norm = prob.sum(axis=-1)
    out = {}
    for n in range(n_max + 1):
        out[n] = prob[..., 3 * n : 3 * n + 3].sum(axis=-1) / norm
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Full-vs-effective comparison at one parameter point.

    ``passed`` avoids shadowing the keyword; the key=value serialization
    still emits it as ``pass``.
    """

    g2_full: float
    g2_effective: float
    rel_diff: float
    passed: bool
    n_max: int
    window_period: float
    window_spread: float

    def as_text(self) -> str:
        lines = [
            f"g2_full = {self.g2_full!r}",
            f"g2_effective = {self.g2_effective!r}",
            f"rel_diff = {self.rel_diff!r}",
            f"pass = {'true' if self.passed else 'false'}",
            f"n_max = {self.n_max}",
            f"window_period = {self.window_period!r}",
            f"window_spread = {self.window_spread!r}",
        ]
        return "\n".join(lines) + "\n"


def averaging_period(params: FullModelParams) -> float:
    """Period of the slowest explicit phase; 1/kappa when none rotates."""
    freqs = [abs(params.delta_p), abs(params.delta_he + params.delta_eg)]
    live = [f for f in freqs if f > 1e-9]
    if not live:
        return 1.0 / params.kappa
    return TAU / min(live)


def _window_g2(p1: np.ndarray, p2: np.ndarray) -> float:
    mean_p1 = float(np.mean(p1))
    mean_p2 = float(np.mean(p2))
    occupation = mean_p1 + 2.0 * mean_p2
    if occupation <= 0.0:
        return math.nan
    return 2.0 * mean_p2 / occupation**2


def validate_effective(
    params: SystemParams,
    tolerance: float = 0.2,
    *,
    n_max: int = 2,
    dt: float = 1e-3,
    transient: float | None = None,
    windows: int = 4,
) -> ValidationReport:
    """Integrate the full model and compare its g2 with the analytic one.

    The full model runs past a ``transient`` (default 100/kappa), then P1
    and P2 are averaged over ``windows`` consecutive periods of the
    slowest explicit phase.  The last two windows must agree on g2 to
    tolerance/10, otherwise NotConverged.
    """
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    if windows < 2:
        raise ValueError("need at least two averaging windows")
    if params.g != 0.0 and abs(params.delta_p / params.g) <= VALIDATE_REGIME_MIN:
        warnings.warn(
            f"|delta_p/g| = {abs(params.delta_p / params.g):.3g} <= "
            f"{VALIDATE_REGIME_MIN:g}; adiabatic elimination is unreliable here",
            RegimeWarning,
            stacklevel=2,
        )

    fm = FullModelParams.from_system_params(params, n_max)
    model = FullModel(fm)
    period = averaging_period(fm)
    if transient is None:
        transient = 100.0 / params.kappa
    # Commensurate step so each window holds a whole number of steps.
    steps_per_period = max(8, int(round(period / dt)))
    dt_used = period / steps_per_period
    t_end = transient + windows * period

    _, times, states = model.run(t_end, dt_used, collect_from=transient)
    occ = photon_occupations(states, n_max)
    p1, p2 = occ[1], occ[2] if n_max >= 2 else np.zeros_like(occ[1])

    per_window = []
    for w in range(windows):
        sel = slice(w * steps_per_period, (w + 1) * steps_per_period)
        per_window.append(_window_g2(p1[sel], p2[sel]))
    g2_full = _window_g2(p1[: windows * steps_per_period], p2[: windows * steps_per_period])
    spread = abs(per_window[-1] - per_window[-2])
    scale = max(abs(g2_full), 1e-30)
    if not math.isfinite(g2_full) or spread / scale > tolerance / 10.0:
        raise NotConverged(
            f"averaging windows disagree: |{per_window[-1]!r} - "
            f"{per_window[-2]!r}| relative to {g2_full!r} exceeds "
            f"{tolerance / 10.0:g}"
        )

    g2_effective = steady_state.steady_stats(params).g2
    rel_diff = abs(g2_full - g2_effective) / abs(g2_effective)
    return ValidationReport(
        g2_full=g2_full,
        g2_effective=g2_effective,
        rel_diff=rel_diff,
        passed=bool(rel_diff < tolerance),
        n_max=n_max,
        window_period=period,
        window_spread=spread,
    )


__all__ = [
    "LEVELS",
    "FullModel",
    "FullModelParams",
    "NotConverged",
    "ValidationReport",
    "averaging_period",
    "photon_occupations",
    "state_index",
    "validate_effective",
]
