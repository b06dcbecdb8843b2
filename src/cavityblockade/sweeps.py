"""Parameter sweeps over the analytic steady state.

A sweep evaluates the closed-form photon statistics on a 1-D or 2-D grid
of parameter values, optionally re-solving the optimal-blockade (J, theta)
at every grid point.  Mirror asymmetry is preserved under a kappa1 axis by
sliding kappa2 = 2 kappa - kappa1, so the total linewidth stays the unit
of every other quantity.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from . import __version__
from . import steady_state
from .params import (
    OVERRIDE_NAMES,
    ConfigError,
    Direction,
    SystemParams,
    _FLOAT_FIELDS,
    _check_overrides,
    _denominators,
    _derive,
    _require_finite,
    _warn_regime,
)
from .steady_state import OBSERVABLES, STAT_COLUMNS

#: Grid points per evaluation block: whole rows of the first axis, at
#: least one row, at most about this many points.  It bounds the
#: temporaries of any sweep to a few hundred kilobytes.
_CHUNK_POINTS = 1 << 12


@dataclass(frozen=True)
class SweepAxis:
    """``count`` evenly spaced values of the parameter ``name``, from
    ``minimum`` to ``maximum`` inclusive: a system parameter, J or theta."""

    name: str
    minimum: float
    maximum: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in OVERRIDE_NAMES:
            raise ConfigError(
                f"axis parameter {self.name!r} is not a system parameter, J, or theta"
            )
        if not (self.minimum < self.maximum):
            raise ConfigError(
                f"axis {self.name}: need minimum < maximum, got "
                f"[{self.minimum!r}, {self.maximum!r}]"
            )
        for bound in (self.minimum, self.maximum):
            _require_finite(f"axis {self.name}: bounds", bound)
        # Python floats: a span that overflows is inf, without a warning.
        span = float(self.maximum) - float(self.minimum)
        _require_finite(f"axis {self.name}: span maximum - minimum", span)
        try:
            if operator.index(self.count) < 2:
                raise ConfigError(f"axis {self.name}: need at least 2 points")
        except TypeError:
            raise ConfigError(f"axis {self.name}: count must be an integer") from None

    def values(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """A 1-D grid over ``axis1`` or a 2-D one over ``axis1`` x ``axis2``.

    ``overrides`` fix other parameters for the whole grid, ``directions``
    names the drive directions evaluated, and ``observable`` the statistic
    a 2-D CSV holds.  With ``optimal_j_theta`` every point takes J and theta
    from the joint cancellation solve at its parameters and, unless delta_c
    is an axis or an override, that solve's optimal delta_c.
    """

    axis1: SweepAxis
    axis2: SweepAxis | None = None
    overrides: Mapping[str, float] = dataclasses.field(default_factory=dict)
    directions: tuple[Direction, ...] = (Direction.FORWARD, Direction.BACKWARD)
    observable: str = "g2"
    optimal_j_theta: bool = False

    def __post_init__(self) -> None:
        if self.observable not in OBSERVABLES:
            raise ConfigError(
                f"observable must be one of {OBSERVABLES}, got {self.observable!r}"
            )
        _check_overrides(self.overrides)
        if not self.directions:
            raise ConfigError("at least one direction is required")
        names = {self.axis1.name}
        if self.axis2 is not None:
            if self.axis2.name == self.axis1.name:
                raise ConfigError("axis1 and axis2 must differ")
            names.add(self.axis2.name)
        clash = names & set(self.overrides)
        if clash:
            raise ConfigError(f"override keys collide with axes: {sorted(clash)}")
        if self.optimal_j_theta and (names | set(self.overrides)) & {"J", "theta"}:
            raise ConfigError(
                "optimal_j_theta resolves J and theta; they cannot also be set"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        if self.axis2 is None:
            return (self.axis1.count,)
        return (self.axis1.count, self.axis2.count)


def parse_directions(text: str) -> tuple[Direction, ...]:
    """The directions named by ``forward``, ``backward`` or ``both``, in any case."""
    key = text.strip().lower()
    if key == "both":
        return (Direction.FORWARD, Direction.BACKWARD)
    try:
        return (Direction(key),)
    except ValueError:
        raise ConfigError(
            f"directions must be forward, backward, or both; got {text!r}"
        ) from None


@dataclass(frozen=True)
class SweepResult:
    """The grids of one sweep, keyed by direction, each of ``spec.shape``.

    ``stats`` maps the five statistics of ``STAT_COLUMNS`` to arrays of
    their own, and ``valid`` is one too: a point is invalid where a
    steady-state denominator is singular, an occupation is not finite, or
    a joint solve has no root, and every statistic is NaN there.
    ``j_used``, ``theta_used`` and ``delta_c_opt`` are read-only views that
    broadcast the derived couplings, or the optimizer's reduced grid, to
    the sweep grid; copy one before writing to it.  ``delta_c_opt`` is None
    unless ``spec.optimal_j_theta``.
    """

    spec: SweepSpec
    base: SystemParams
    values1: np.ndarray
    values2: np.ndarray | None
    stats: Mapping[Direction, Mapping[str, np.ndarray]]
    valid: Mapping[Direction, np.ndarray]
    j_used: Mapping[Direction, np.ndarray]
    theta_used: Mapping[Direction, np.ndarray]
    delta_c_opt: Mapping[Direction, np.ndarray | None]
    provenance: Mapping[str, str]

    def observable_grid(self, direction: Direction) -> np.ndarray:
        return self.stats[direction][self.spec.observable]


def _config_text(spec: SweepSpec, base: SystemParams) -> bytes:
    """The text ``config_hash`` digests: the repr of ``(spec, base)`` with
    every real number a Python float and every count a Python int, so a
    grid hashes the same however its numbers were typed (``-1``, ``-1.0``
    or ``np.float64(-1.0)``), and with the base's direction forward, since
    ``spec.directions`` alone names the directions a sweep runs."""

    def axis(a: SweepAxis | None) -> SweepAxis | None:
        if a is None:
            return None
        return dataclasses.replace(
            a,
            minimum=float(a.minimum),
            maximum=float(a.maximum),
            count=operator.index(a.count),
        )

    spec = dataclasses.replace(
        spec,
        axis1=axis(spec.axis1),
        axis2=axis(spec.axis2),
        overrides={name: float(v) for name, v in spec.overrides.items()},
    )
    base = dataclasses.replace(
        base,
        direction=Direction.FORWARD,
        **{
            name: float(v)
            for name in _FLOAT_FIELDS
            if (v := getattr(base, name)) is not None
        },
    )
    return repr((spec, base)).encode()


def _provenance(spec: SweepSpec, base: SystemParams) -> dict[str, str]:
    # hashlib loads OpenSSL's libcrypto, a few megabytes of resident memory,
    # for this one short digest; CPython's built-in SHA-256 gives the same.
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return {
        "version": __version__,
        "config_hash": sha256(_config_text(spec, base)).hexdigest()[:16],
    }


def _axis_overrides(spec: SweepSpec) -> dict[str, np.ndarray]:
    v1 = spec.axis1.values()
    if spec.axis2 is None:
        return {spec.axis1.name: v1}
    v2 = spec.axis2.values()
    return {spec.axis1.name: v1[:, None], spec.axis2.name: v2[None, :]}


def _evaluate_direction(
    params: SystemParams, spec: SweepSpec
) -> tuple[
    dict[str, np.ndarray], np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, list
]:
    grid = dict(_axis_overrides(spec))
    for key, value in spec.overrides.items():
        grid[key] = np.asarray(float(value))
    # delta_c enters only the denominators M and N, not the joint solve nor
    # a regime check.  Over a detuning axis M and N vary over the whole
    # grid, so each block forms them from its own rows instead.
    delta_c = grid.pop("delta_c", None)

    dc_opt = None
    if spec.optimal_j_theta:
        from . import optimizer

        # The joint solve runs on the grid without delta_c, which drops out
        # of it; its arrays broadcast against the sweep grid.  A column with
        # no root has J = NaN, a point the evaluator marks invalid.  The
        # regime conditions of this grid, whose e_he is the configured one
        # that no cell uses, are dropped; the cells' grid below checks them.
        consts, _ = _derive(params, grid)
        grid["J"], grid["theta"], dc_opt = optimizer.solve_optimal_arrays(
            *(consts[key] for key in optimizer._ROOT_INPUTS)
        )
        if delta_c is None:
            # Without a detuning axis the natural operating point is the
            # per-point optimal detuning itself.
            delta_c = dc_opt
    if delta_c is None:
        delta_c = params.delta_c

    consts, violated = _derive(params, grid)
    full_shape = spec.shape
    # Read-only views: J and theta vary along fewer axes than the grid, as
    # does delta_c_opt, and nothing writes to them.
    j_used = np.broadcast_to(consts["j"], full_shape)
    theta_used = np.broadcast_to(consts["theta"], full_shape)
    if dc_opt is not None:
        dc_opt = np.broadcast_to(dc_opt, full_shape)
    names = ("kappa", "g_shift", "omega", "delta_e", "j", "theta", "e_eg")
    inputs = [np.asarray(a) for a in (delta_c, *(consts[key] for key in names))]
    # M and N at the base detuning go with the rest.
    del consts
    # The blocks below cover every row, so every cell is written.
    stat_out = {name: np.empty(full_shape) for name in STAT_COLUMNS}
    valid = np.empty(full_shape, dtype=bool)

    per = max(1, _CHUNK_POINTS // math.prod(full_shape[1:]))
    for at in range(0, spec.axis1.count, per):
        rows = slice(at, at + per)
        # Only an array that varies along the first axis is cut; the others
        # broadcast against the block as they are.
        delta_c, kappa, g_shift, omega, delta_e, j, theta, e_eg = (
            a[rows] if a.ndim == len(full_shape) and a.shape[0] > 1 else a
            for a in inputs
        )
        m, n = _denominators(delta_c, kappa, g_shift, delta_e)
        _, valid[rows] = steady_state._stats_from_parameters(
            omega, m, n, delta_e, j, theta, e_eg,
            out={name: whole[rows] for name, whole in stat_out.items()},
        )
    return stat_out, valid, j_used, theta_used, dc_opt, violated


def run_sweep(
    spec: SweepSpec, base: SystemParams, *, jobs: int | None = None
) -> SweepResult:
    """Evaluate the analytic steady state over the requested grid.

    The grid is evaluated in blocks of whole rows, about 2**12 points each
    (an ``optimal_j_theta`` joint solve in 2**10 columns), written into the
    result, so the memory a sweep needs beyond it is bounded by the block,
    not the grid.  The result holds the five statistics of ``STAT_COLUMNS``
    and ``valid`` per direction at full grid size; ``j_used``,
    ``theta_used`` and ``delta_c_opt`` are read-only views, as large only as
    the axes they vary along.  Every grid runs on the calling thread, and
    every point is computed independently, so the arrays are identical
    whatever the blocking.  ``jobs`` is accepted for compatibility only and
    has no effect.  Each regime condition some point violates is warned
    once per sweep, whatever the directions and the grids it is checked on.
    """
    results = [
        _evaluate_direction(dataclasses.replace(base, direction=direction), spec)
        for direction in spec.directions
    ]
    stats, valid, j_used, theta_used, dc_opt, violated = (
        dict(zip(spec.directions, column)) for column in zip(*results)
    )
    _warn_regime([v for found in violated.values() for v in found], grid=True)
    return SweepResult(
        spec=spec,
        base=base,
        values1=spec.axis1.values(),
        values2=None if spec.axis2 is None else spec.axis2.values(),
        stats=stats,
        valid=valid,
        j_used=j_used,
        theta_used=theta_used,
        delta_c_opt=dc_opt,
        provenance=_provenance(spec, base),
    )


def _csv_rows(columns: list[np.ndarray], ok: list) -> Iterator[list[str]]:
    """The CSV lines of a float table, one list per block of about
    ``_CHUNK_POINTS`` cells, each cell by one rule.

    ``columns`` share their first axis, the rows: a 1-D array is one column,
    a 2-D array several.  ``ok`` holds for each column True or a mask that
    broadcasts against its rows.  A cell is the shortest round-trip ``repr``
    of its value, or empty where ``ok`` is False or the value is not finite:
    such a cell becomes NaN, and its row then drops the text ``nan``, which
    no ``repr`` of a finite float contains.  Only one block at a time
    becomes Python floats, never a whole grid.
    """
    per = max(1, _CHUNK_POINTS // sum(math.prod(c.shape[1:]) for c in columns))
    masks = [np.broadcast_to(g, c.shape) for c, g in zip(columns, ok)]
    for at in range(0, len(columns[0]), per):
        rows = slice(at, at + per)
        table = np.column_stack([c[rows] for c in columns])
        good = np.column_stack([m[rows] for m in masks]) & np.isfinite(table)
        cells = np.where(good, table, math.nan).tolist()
        lines = [",".join(map(repr, row)) for row in cells]
        for i in np.flatnonzero(~good.all(axis=1)).tolist():
            lines[i] = lines[i].replace("nan", "")
        yield lines


def _preamble(result: SweepResult) -> list[str]:
    spec = result.spec
    lines = [
        f"# version = {result.provenance['version']}",
        f"# config_hash = {result.provenance['config_hash']}",
    ]
    for key, axis in (("axis1", spec.axis1), ("axis2", spec.axis2)):
        if axis is not None:
            lines.append(
                f"# {key} = {axis.name}, {float(axis.minimum)!r}, "
                f"{float(axis.maximum)!r}, {axis.count}"
            )
    return lines


def _write_lines(path: Path, head: list[str], blocks: Iterator[list[str]]) -> str:
    """Write ``head``, then each block of lines in one write."""
    with path.open("w") as fh:
        for lines in itertools.chain([head], blocks):
            fh.write("\n".join(lines) + "\n")
    return path.name


def _sweep_rows(result: SweepResult) -> Iterator[list[str]]:
    """The blocks of a 1-D file: per direction, the axis value and the
    statistics by the ``_csv_rows`` rule, the direction after the axis
    value and the ``valid`` flag last."""
    for d in result.spec.directions:
        valid, label = result.valid[d], f",{d.value},"
        columns = [result.values1, *(result.stats[d][name] for name in STAT_COLUMNS)]
        flags = iter(valid)  # zip draws a flag only for a line it has
        for lines in _csv_rows(columns, [True, *[valid] * len(STAT_COLUMNS)]):
            # No cell's text holds a comma, so the first one ends the axis value.
            yield [
                f"{line.replace(',', label, 1)},{'true' if good else 'false'}"
                for line, good in zip(lines, flags)
            ]


def write_sweep_csv(result: SweepResult, path) -> list[str]:
    """Serialize a sweep; 1-D grids go to one file, 2-D to one per direction.

    Returns the written file names.  Invalid or non-finite values are
    left as empty cells; the ``valid`` column makes the mask explicit.
    """
    path = Path(path)
    if result.spec.axis2 is None:
        header = [result.spec.axis1.name, "direction", *STAT_COLUMNS, "valid"]
        head = [*_preamble(result), ",".join(header)]
        return [_write_lines(path, head, _sweep_rows(result))]
    head = [*_preamble(result), f"# observable = {result.spec.observable}"]
    return [
        _write_lines(
            path.with_name(f"{path.stem}_{d.value}{path.suffix}"), head,
            _csv_rows([result.observable_grid(d)], [result.valid[d]]),
        )
        for d in result.spec.directions
    ]


__all__ = [
    "STAT_COLUMNS",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "parse_directions",
    "run_sweep",
    "write_sweep_csv",
]
