"""Physical inputs and the reduction to the effective cavity-atom model.

Every rate and detuning in this package is expressed in units of the total
cavity decay rate kappa; input field amplitudes ``b_in`` carry units of
sqrt(kappa).  The two mirrors decay at ``kappa1`` (left) and ``kappa2``
(right) with ``kappa1 + kappa2 = 2 kappa``; driving the left mirror is the
FORWARD direction, driving the right mirror is BACKWARD.

The effective model is derived in one place, :func:`_derive`: adiabatic
elimination of the far-detuned upper level |h> gives the Stark shift
G = g**2/delta_p and the Raman coupling J = g*e_he/delta_p; with the drive
Omega = sqrt(kappa_in)*b_in and the denominators M and N (:func:`_denominators`)
these are every coefficient of the closed-form steady state.  It also forms
the bare detunings of the un-eliminated model, delta_eg = delta_e +
e_he**2/delta_p and the upper-leg delta_he (Raman resonant, delta_p -
delta_eg, unless set), which ``full_model`` reads.  The same
routine checks the inputs by the rules of :class:`SystemParams`
(:func:`_check_inputs`) and the four regime conditions of :data:`_REGIME`.
It runs on floats and on arrays alike: :func:`derive_effective` is its view
at one point, warning with the measured ratio, and :func:`effective_arrays`
its view over a grid, warning once per violated condition.  The optimizer and the
sweeps call :func:`_derive` directly and decide themselves when to warn, all
through :func:`_warn_regime`.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

import numpy as np


TAU = 2.0 * math.pi

# Validity guard rails for the adiabatic elimination and the weak-driving
# truncation.  Violations warn (RegimeWarning) but never abort: the
# breakdown region is itself worth exploring.
DETUNING_RATIO_MIN = 10.0
WEAK_DRIVE_MAX = 0.1

KAPPA_SUM_TOL = 1e-9


class Direction(Enum):
    """Which mirror is driven: FORWARD uses kappa1, BACKWARD uses kappa2."""

    FORWARD = "forward"
    BACKWARD = "backward"

    def flipped(self) -> "Direction":
        return Direction.BACKWARD if self is Direction.FORWARD else Direction.FORWARD


class RegimeWarning(UserWarning):
    """A validity assumption of the effective model is not satisfied."""


class ConfigError(ValueError):
    """Malformed configuration text or parameter overrides."""


class NumericalFailure(ValueError):
    """Well-formed inputs on which a solve has no answer: a singular
    denominator, no real root, an undefined optimal detuning."""


def _require_finite(name: str, value) -> None:
    """ConfigError unless ``value``, a number or an array, is finite throughout."""
    array = isinstance(value, np.ndarray)
    if not (np.isfinite(value).all() if array else math.isfinite(value)):
        raise ConfigError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """All physical inputs of the driven three-level cavity system.

    Fields (units of kappa unless noted):

    kappa      total cavity decay rate, 1.0 by convention
    kappa1     left-mirror decay rate
    kappa2     right-mirror decay rate (kappa1 + kappa2 = 2 kappa)
    g          single-photon coupling on the cavity leg
    delta_p    detuning of the upper level from the cavity drive
    delta_he   detuning of the atomic drive on the upper leg; None means
               "Raman resonant", i.e. delta_p - delta_eg is assumed
    delta_e    effective detuning of the intermediate level, an independent
               input; the bare detuning delta_eg = delta_e + e_he**2/delta_p
               follows from it (:func:`_derive`)
    delta_c    cavity detuning from the drive
    e_he       amplitude of the optical drive on the upper atomic leg
    e_eg       amplitude of the microwave drive between the ground levels
    b_in       input field amplitude, units sqrt(kappa)
    phi_p      phase of the cavity drive
    phi_he     phase of the upper-leg drive
    phi_eg     phase of the microwave drive
    direction  driven mirror
    """

    kappa: float = 1.0
    kappa1: float = 1.0
    kappa2: float = 1.0
    g: float = 0.0
    delta_p: float = 100.0
    delta_he: float | None = None
    delta_e: float = 0.0
    delta_c: float = 0.0
    e_he: float = 0.0
    e_eg: float = 0.0
    b_in: float = 0.0
    phi_p: float = 0.0
    phi_he: float = 0.0
    phi_eg: float = 0.0
    direction: Direction = Direction.FORWARD

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name == "direction":
                continue
            value = getattr(self, f.name)
            if value is None and f.name == "delta_he":
                continue
            _require_finite(f.name, value)
        if not isinstance(self.direction, Direction):
            raise ValueError(f"direction must be a Direction, got {self.direction!r}")
        _check_inputs(vars(self))

    @property
    def kappa_in(self) -> float:
        """Decay rate of the driven mirror."""
        return self.kappa1 if self.direction is Direction.FORWARD else self.kappa2


_FLOAT_FIELDS = tuple(
    f.name for f in fields(SystemParams) if f.name not in ("direction",)
)


#: Names the derivation accepts as per-point overrides: every numeric
#: SystemParams field but delta_he, and the direct couplings J and theta.
OVERRIDE_NAMES = tuple(f for f in _FLOAT_FIELDS if f != "delta_he") + ("J", "theta")


def _any(hit) -> bool:
    """``np.any``, without its call overhead on the bools of one point."""
    return bool(hit.any()) if isinstance(hit, np.ndarray) else bool(hit)


def _check_inputs(v: Mapping[str, object]) -> None:
    """ConfigError unless the rates and amplitudes of ``v`` obey the rules of
    :class:`SystemParams` at every point: kappa, kappa1, kappa2 > 0, kappa1 +
    kappa2 = 2 kappa within :data:`KAPPA_SUM_TOL`, and g, e_he, e_eg, b_in
    >= 0.  Each value is a float at one point or an array over a grid."""
    kappa, kappa1, kappa2 = v["kappa"], v["kappa1"], v["kappa2"]
    if _any(kappa <= 0.0):
        raise ConfigError("kappa must be positive")
    if _any((kappa1 <= 0.0) | (kappa2 <= 0.0)):
        raise ConfigError("mirror decay rates kappa1, kappa2 must be positive")
    if _any(abs(kappa1 + kappa2 - 2.0 * kappa) > KAPPA_SUM_TOL * kappa):
        raise ConfigError("kappa1 + kappa2 must equal 2*kappa")
    for name in ("g", "e_he", "e_eg", "b_in"):
        if _any(v[name] < 0.0):
            raise ConfigError(f"{name} must be non-negative")


def _check_overrides(overrides: Mapping[str, object]) -> None:
    """ConfigError unless every name is one of :data:`OVERRIDE_NAMES` and
    every value is finite."""
    unknown = overrides.keys() - OVERRIDE_NAMES
    if unknown:
        raise ConfigError(f"unknown override keys: {sorted(unknown)}")
    for name, value in overrides.items():
        _require_finite(name, value)


def _slide_mirrors(v: Mapping[str, object], named) -> tuple:
    """(kappa1, kappa2) of ``v``, with the mirror ``named`` leaves out slid
    to keep kappa1 + kappa2 = 2 kappa when it names the other one alone."""
    kappa, kappa1, kappa2 = v["kappa"], v["kappa1"], v["kappa2"]
    if "kappa1" in named and "kappa2" not in named:
        kappa2 = 2.0 * kappa - kappa1
    elif "kappa2" in named and "kappa1" not in named:
        kappa1 = 2.0 * kappa - kappa2
    return kappa1, kappa2


@dataclass(frozen=True)
class EffectiveParams:
    """Derived quantities of the effective two-manifold model.

    delta_e  effective detuning of the intermediate level
    G        photon-number-dependent Stark shift, g**2/delta_p
    J        Raman coupling between |1,g>-like and |0,e>-like states
    theta    single gauge-invariant drive phase, as given (not wrapped)
    omega    cavity drive amplitude sqrt(kappa_in)*b_in
    M        complex single-photon denominator delta_c - i*kappa/2 - G
    N        complex dressed denominator delta_c - i*kappa/2 + delta_e

    Readers work from M and N themselves: Re M + G need not round back to
    the input delta_c.
    """

    delta_e: float
    G: float
    J: float
    theta: float
    omega: float
    M: complex
    N: complex


class _Condition(NamedTuple):
    """A validity condition of the effective model, violated where
    ``violated(value, bound)`` holds; ``point`` formats the message at one
    point from the value, ``grid`` is the message over a grid."""

    violated: Callable
    bound: float
    point: str
    grid: str


#: The regime conditions, in the order :func:`_derive` reports them.
_REGIME = (
    _Condition(
        operator.le, DETUNING_RATIO_MIN,
        "|delta_p/g| = {:.3g} <= 10; adiabatic elimination is marginal",
        "grid points violate |delta_p/g| > 10",
    ),
    _Condition(
        operator.le, DETUNING_RATIO_MIN,
        "|delta_he/e_he| = {:.3g} <= 10; upper-leg drive is not far detuned",
        "grid points violate |delta_he/e_he| > 10",
    ),
    _Condition(
        operator.ge, WEAK_DRIVE_MAX,
        "omega/kappa = {:.3g} >= 0.1; weak-driving truncation is marginal",
        "grid points violate the weak cavity drive condition Omega/kappa < 0.1",
    ),
    _Condition(
        operator.ge, WEAK_DRIVE_MAX,
        "e_eg/kappa = {:.3g} >= 0.1; weak-driving truncation is marginal",
        "grid points violate the weak microwave condition E_eg/kappa < 0.1",
    ),
)


def _ratio(num, den):
    """|num|/den where den > 0, NaN elsewhere; no regime condition holds on
    a NaN ratio.  Python numbers stay Python numbers."""
    if isinstance(den, (int, float)):
        return abs(num) / den if den > 0.0 else math.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, np.abs(num) / den, np.nan)


def _denominators(delta_c, kappa, g_shift, delta_e):
    """M = delta_c - i kappa/2 - G and N = delta_c - i kappa/2 + delta_e."""
    half_loss = 0.5j * kappa
    return delta_c - half_loss - g_shift, delta_c - half_loss + delta_e


#: The coefficients of :func:`_derive` that ``steady_state.amplitude_arrays``
#: takes, in its argument order.
_AMPLITUDE_INPUTS = ("omega", "m", "n", "delta_e", "j", "theta", "e_eg")


def _derive(
    params: SystemParams, overrides: dict[str, object]
) -> tuple[dict[str, object], list[tuple[_Condition, object]]]:
    """The effective model of ``params`` at every point of ``overrides``.

    ``overrides`` maps names of :data:`OVERRIDE_NAMES` to floats or to
    arrays that broadcast against each other.  Overriding kappa1 (or kappa2)
    alone slides the opposite mirror to keep the total kappa fixed; an
    overridden J implies the upper-leg drive e_he = |J| delta_p / g (none
    where g = 0), and theta overrides phi_p - phi_he - phi_eg.  ConfigError
    unless the rates and amplitudes keep the rules of :class:`SystemParams`
    at every point (:func:`_check_inputs`).

    Returns the coefficients by name (:data:`_AMPLITUDE_INPUTS`, plus
    ``g_shift``, ``kappa``, ``delta_c``, the upper-leg drive ``e_he``, and
    the bare detunings ``delta_eg`` and ``delta_he`` of the configured e_he,
    not of the e_he an overridden J implies) and, for each regime condition
    some point violates, the condition and its value at every point.  Plain operators keep a point given as floats
    on floats, so one point costs a few microseconds.
    """
    v = vars(params) | overrides
    v["kappa1"], v["kappa2"] = _slide_mirrors(v, overrides)
    _check_inputs(v)

    kappa, kappa1, kappa2 = v["kappa"], v["kappa1"], v["kappa2"]
    delta_p = v["delta_p"]
    if _any(delta_p == 0.0):
        raise ZeroDivisionError("delta_p must be nonzero for the adiabatic elimination")

    g, e_he, delta_e = v["g"], v["e_he"], v["delta_e"]
    # The bare detuning and the Raman-resonant upper leg, from the
    # configured e_he.  Squares are products: a float's ** 2 goes through
    # the C library's pow, which can round differently from numpy's exact
    # square of an array.
    delta_eg = delta_e + e_he * e_he / delta_p
    delta_he = delta_p - delta_eg if params.delta_he is None else params.delta_he
    if "J" in overrides:
        j = v["J"]
        e_he = _ratio(j * delta_p, g)
    else:
        j = g * e_he / delta_p
    theta = v["theta"] if "theta" in overrides else v["phi_p"] - v["phi_he"] - v["phi_eg"]

    kappa_in = kappa1 if params.direction is Direction.FORWARD else kappa2
    omega = np.sqrt(kappa_in) * v["b_in"]
    e_eg, delta_c = v["e_eg"], v["delta_c"]
    g_shift = g * g / delta_p
    m, n = _denominators(delta_c, kappa, g_shift, delta_e)
    consts = {
        "omega": omega,
        "m": m,
        "n": n,
        "delta_e": delta_e,
        "j": j,
        "theta": theta,
        "e_eg": e_eg,
        "g_shift": g_shift,
        "kappa": kappa,
        "delta_c": delta_c,
        "e_he": e_he,
        "delta_eg": delta_eg,
        "delta_he": delta_he,
    }
    values = (_ratio(delta_p, g), _ratio(delta_he, e_he), omega / kappa, e_eg / kappa)
    violated = [
        (condition, value)
        for condition, value in zip(_REGIME, values)
        if _any(condition.violated(value, condition.bound))
    ]
    return consts, violated


def _warn_regime(violated, stacklevel: int, *, grid: bool = False) -> None:
    """One RegimeWarning per condition of ``violated``, in order of first
    appearance, worded with its first value or, with ``grid``, its grid
    message.  ``stacklevel`` counts from the caller."""
    first = {}
    for condition, value in violated:
        first.setdefault(condition, value)
    for condition, value in first.items():
        message = condition.grid if grid else condition.point.format(value)
        warnings.warn(message, RegimeWarning, stacklevel=stacklevel + 1)


def derive_effective(
    params: SystemParams,
    *,
    j: float | None = None,
    theta: float | None = None,
) -> EffectiveParams:
    """Apply the large-detuning reduction to a parameter set.

    ``j`` overrides the Raman coupling g*e_he/delta_p (used by optimizer and
    sweep code that treats J as a direct control); ``theta`` overrides the
    phase combination phi_p - phi_he - phi_eg.  Both must be finite.

    Emits RegimeWarning when the elimination or the weak-driving truncation
    is not justified; the numbers are still produced.  The values, theta
    included, are those :func:`effective_arrays` gives for the one point,
    bit for bit.
    """
    overrides = {}
    if j is not None:
        overrides["J"] = float(j)
    if theta is not None:
        overrides["theta"] = float(theta)
    _check_overrides(overrides)
    c, violated = _derive(params, overrides)
    _warn_regime(violated, 2)
    return EffectiveParams(
        delta_e=c["delta_e"],
        G=c["g_shift"],
        J=c["j"],
        theta=c["theta"],
        omega=float(c["omega"]),
        M=c["m"],
        N=c["n"],
    )


def effective_arrays(
    params: SystemParams, overrides: Mapping[str, object]
) -> dict[str, np.ndarray]:
    """Effective-model coefficient arrays with per-point overrides.

    Override values broadcast against each other; any name of
    :data:`OVERRIDE_NAMES` is accepted, as :func:`_derive` describes, and
    must be finite at every point.  Warns once per regime condition that
    some point violates.
    """
    overrides = {k: np.asarray(v, dtype=float) for k, v in overrides.items()}
    _check_overrides(overrides)
    consts, violated = _derive(params, overrides)
    _warn_regime(violated, 2, grid=True)
    return {k: np.asarray(v) for k, v in consts.items()}


def implied_e_he(j, params: SystemParams):
    """Upper-leg drive amplitude that realizes a given Raman coupling.

    Back-solves e_he = |J*delta_p/g|, for a float or an array ``j``; the
    sign of J is carried by a pi shift of theta, so the amplitude is
    reported non-negative.
    """
    if params.g == 0.0:
        raise ZeroDivisionError("cannot back-solve e_he when g = 0")
    return _derive(params, {"J": j})[0]["e_he"]


def mirror_swap(params: SystemParams) -> SystemParams:
    """Exchange the mirror decay rates and flip the driven direction.

    The swapped system driven the opposite way is physically identical to
    the original, which makes this the natural reciprocity probe.
    """
    return replace(
        params,
        kappa1=params.kappa2,
        kappa2=params.kappa1,
        direction=params.direction.flipped(),
    )


def _kv_text(pairs: list[tuple[str, object]]) -> str:
    """``key = value`` lines, one per pair: floats as their repr, bools as
    ``true``/``false``, anything else as its str.  The output format of the
    report verbs and files."""
    lines = []
    for key, value in pairs:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


class _Report:
    """Base of the report dataclasses, which print as ``key = value`` lines."""

    def as_text(self) -> str:
        """:func:`_kv_text` of the fields, in order, each keyed by its
        ``key`` metadata or else its name."""
        return _kv_text(
            [(f.metadata.get("key", f.name), getattr(self, f.name)) for f in fields(self)]
        )


def parse_config(text: str) -> dict[str, object]:
    """Parse ``key = value`` configuration text into a raw mapping.

    Lines are one assignment each; ``#`` starts a comment; blank lines are
    ignored.  Unknown keys, repeated keys and unparseable values raise
    ConfigError.
    """
    known = set(_FLOAT_FIELDS) | {"direction"}
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key == "direction":
            try:
                out[key] = Direction(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: direction must be 'forward' or 'backward', "
                    f"got {value!r}"
                ) from None
        else:
            try:
                out[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: could not parse {value!r} as a number for {key!r}"
                ) from None
    return out


def params_from_mapping(
    mapping: dict[str, object], base: SystemParams | None = None
) -> SystemParams:
    """Build SystemParams from a raw mapping, layered over ``base``; naming
    one mirror rate alone slides the other, as :func:`_slide_mirrors` does."""
    base = base if base is not None else SystemParams()
    unknown = set(mapping) - set(_FLOAT_FIELDS) - {"direction"}
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")
    kappa1, kappa2 = _slide_mirrors(vars(base) | mapping, mapping)
    try:
        return replace(base, **{**mapping, "kappa1": kappa1, "kappa2": kappa2})
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path, base: SystemParams | None = None) -> SystemParams:
    """Read a configuration file and return the resulting SystemParams."""
    text = Path(path).read_text(encoding="utf-8")
    return params_from_mapping(parse_config(text), base=base)


def reference_params() -> SystemParams:
    """Asymmetric-cavity working point used throughout the figure presets.

    kappa1/kappa = 0.2, kappa2/kappa = 1.8, g = 10, delta_p = 100,
    delta_e = -0.5, b_in = 0.02 sqrt(kappa), e_eg = 0.01.  The Raman
    coupling is left at zero here; sweeps and the optimizer set J (or
    e_he) explicitly.
    """
    return SystemParams(
        kappa1=0.2,
        kappa2=1.8,
        g=10.0,
        delta_p=100.0,
        delta_e=-0.5,
        b_in=0.02,
        e_eg=0.01,
    )


#: Names of the figure presets over the reference working point; each is
#: built by the function of the same name in :mod:`cavityblockade.figures`.
#: Listed here so the command-line parser can name them without loading the
#: figure code.
FIGURE_NAMES = (
    "fig2a",
    "fig2b",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig3d",
    "fig5a",
    "fig5b",
    "fig5c",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig6d",
)


__all__ = [
    "ConfigError",
    "Direction",
    "EffectiveParams",
    "FIGURE_NAMES",
    "NumericalFailure",
    "RegimeWarning",
    "SystemParams",
    "derive_effective",
    "effective_arrays",
    "implied_e_he",
    "load_config",
    "mirror_swap",
    "params_from_mapping",
    "parse_config",
    "reference_params",
]
