"""Named figure presets: fixed grids over the reference working point.

Each figure writes its data as CSV (the contract) plus a simple SVG
rendering.  Grids and axis ranges are fixed so reruns are bit-identical.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

import numpy as np

from . import svgplot, sweeps
from .params import FIGURE_NAMES, ConfigError, Direction, implied_e_he, reference_params


class UnknownFigure(ConfigError, KeyError):
    """Requested figure name is not one of the built-in presets."""


GRID_1D = 601
GRID_2D = 201

#: The working point every preset starts from.
_BASE = reference_params()

_G2_LABEL = "g2(0)"
_DC_LABEL = "delta_c / kappa"


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return path.name


def _table_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> str:
    lines = [",".join(header), *sweeps._csv_rows(np.column_stack(columns), True)]
    return _write(path, "\n".join(lines) + "\n")


def _direction_sweep(
    axis: sweeps.SweepAxis,
    *,
    overrides: dict[str, float] | None = None,
    directions: tuple[Direction, ...] = (Direction.FORWARD, Direction.BACKWARD),
    observable: str = "g2",
    optimal: bool = True,
    axis2: sweeps.SweepAxis | None = None,
) -> sweeps.SweepResult:
    spec = sweeps.SweepSpec(
        axis1=axis,
        axis2=axis2,
        overrides=overrides or {},
        directions=directions,
        observable=observable,
        optimal_j_theta=optimal,
    )
    return run_quiet(sweeps.run_sweep, spec, _BASE)


def run_quiet(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with RegimeWarnings silenced: a preset's
    grids and points lie where the figure needs them, regime or not."""
    import warnings

    from .params import RegimeWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return fn(*args, **kwargs)


def _line_figure(
    result: sweeps.SweepResult,
    out: Path,
    name: str,
    observable: str,
    ylabel: str,
) -> list[str]:
    files = sweeps.write_sweep_csv(result, out / f"{name}.csv")
    plot = svgplot.LinePlot(xlabel=_DC_LABEL, ylabel=ylabel, log_y=True, title=name)
    for direction in result.spec.directions:
        y = result.stats[direction][observable]
        plot.add_line(result.values1, y, direction.value)
    files.append(_write(out / f"{name}.svg", plot.render()))
    return files


def _heatmap_figure(
    result: sweeps.SweepResult,
    out: Path,
    name: str,
    direction: Direction,
    xlabel: str,
    *,
    ylabel: str = _DC_LABEL,
    overlay: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[str]:
    files = sweeps.write_sweep_csv(result, out / f"{name}.csv")
    heat = svgplot.Heatmap(
        x=result.values1,
        y=result.values2,
        z=result.observable_grid(direction),
        xlabel=xlabel,
        ylabel=ylabel,
        title=name,
        color_label=f"log10 {result.spec.observable}",
    )
    if overlay is not None:
        heat.add_line(*overlay)
    files.append(_write(out / f"{name}.svg", heat.render()))
    return files


def fig2a(out: Path) -> list[str]:
    res = _direction_sweep(sweeps.SweepAxis("delta_c", -4.0, 2.0, GRID_1D))
    return _line_figure(res, out, "fig2a", "g2", _G2_LABEL)


def fig2b(out: Path) -> list[str]:
    res = _direction_sweep(
        sweeps.SweepAxis("delta_c", -4.0, 2.0, GRID_1D), observable="n_paper"
    )
    return _line_figure(res, out, "fig2b", "n_paper", "n (leading order)")


def _optimum_figure(
    out: Path, name: str, axis: sweeps.SweepAxis, xlabel: str, *, overlay: bool = False
) -> list[str]:
    """The forward g2 over ``axis`` x delta_c at the optimal (J, theta) of
    each point, and the optimum along ``axis`` in ``<name>_optimum.csv``;
    ``overlay`` draws the optimal delta_c over the heatmap."""
    res = _direction_sweep(
        axis,
        axis2=sweeps.SweepAxis("delta_c", -4.0, 4.0, GRID_2D),
        directions=(Direction.FORWARD,),
    )
    d = Direction.FORWARD
    dc_opt = res.delta_c_opt[d][:, 0]
    files = _heatmap_figure(
        res, out, name, d, xlabel, overlay=(res.values1, dc_opt) if overlay else None
    )
    files.append(
        _table_csv(
            out / f"{name}_optimum.csv",
            [axis.name, "J", "theta", "delta_c_opt"],
            [res.values1, res.j_used[d][:, 0], res.theta_used[d][:, 0], dc_opt],
        )
    )
    return files


def fig3a(out: Path) -> list[str]:
    axis = sweeps.SweepAxis("delta_e", -3.0, 3.0, GRID_2D)
    return _optimum_figure(out, "fig3a", axis, "delta_e / kappa", overlay=True)


def fig3b(out: Path) -> list[str]:
    res = _direction_sweep(
        sweeps.SweepAxis("delta_e", -3.0, 3.0, GRID_1D),
        directions=(Direction.FORWARD,),
    )
    d = Direction.FORWARD
    e_he = implied_e_he(res.j_used[d], _BASE)
    files = [
        _table_csv(
            out / "fig3b.csv",
            ["delta_e", "e_he", "J", "theta", "delta_c_opt"],
            [res.values1, e_he, res.j_used[d], res.theta_used[d], res.delta_c_opt[d]],
        )
    ]
    plot = svgplot.LinePlot(
        xlabel="delta_e / kappa", ylabel="optimal e_he / kappa", title="fig3b"
    )
    plot.add_line(res.values1, e_he, "")
    files.append(_write(out / "fig3b.svg", plot.render()))
    return files


def _microwave_pair(observable: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """delta_c grid plus on/off curves at the microwave-on optimal (J, theta).

    The microwave-off system has no exact cancellation point, so both curves
    share the drive-on optimum; only e_eg changes.
    """
    from . import optimizer

    point = optimizer.solve_optimal(_BASE)
    axis = sweeps.SweepAxis("delta_c", -1.0, 2.0, GRID_1D)
    curves = []
    for e_eg in (_BASE.e_eg, 0.0):
        res = _direction_sweep(
            axis,
            overrides={"J": point.J, "theta": point.theta, "e_eg": e_eg},
            directions=(Direction.FORWARD,),
            observable=observable,
            optimal=False,
        )
        curves.append(res.stats[Direction.FORWARD][observable])
        grid = res.values1
    return grid, curves[0], curves[1]


def _microwave_figure(out: Path, name: str, observable: str, ylabel: str) -> list[str]:
    grid, on, off = _microwave_pair(observable)
    files = [
        _table_csv(
            out / f"{name}.csv",
            ["delta_c", f"{observable}_microwave_on", f"{observable}_microwave_off"],
            [grid, on, off],
        )
    ]
    plot = svgplot.LinePlot(xlabel=_DC_LABEL, ylabel=ylabel, log_y=True, title=name)
    plot.add_line(grid, on, "e_eg = %g" % _BASE.e_eg)
    plot.add_line(grid, off, "e_eg = 0", dashed=True)
    files.append(_write(out / f"{name}.svg", plot.render()))
    return files


def fig3c(out: Path) -> list[str]:
    return _microwave_figure(out, "fig3c", "g2", _G2_LABEL)


def fig3d(out: Path) -> list[str]:
    return _microwave_figure(out, "fig3d", "n_paper", "n (leading order)")


def fig5a(out: Path) -> list[str]:
    axis = sweeps.SweepAxis("g", 2.0, 14.0, GRID_2D)
    return _optimum_figure(out, "fig5a", axis, "g / kappa")


def fig5b(out: Path) -> list[str]:
    res = _direction_sweep(
        sweeps.SweepAxis("delta_c", -4.0, 4.0, GRID_1D), overrides={"g": 6.7}
    )
    return _line_figure(res, out, "fig5b", "g2", _G2_LABEL)


def fig5c(out: Path) -> list[str]:
    res = _direction_sweep(
        sweeps.SweepAxis("kappa1", 0.02, 1.98, GRID_2D),
        axis2=sweeps.SweepAxis("delta_c", -4.0, 4.0, GRID_2D),
        overrides={"g": 6.7},
        directions=(Direction.FORWARD,),
    )
    return _heatmap_figure(res, out, "fig5c", Direction.FORWARD, "kappa1 / kappa")


def _j_theta_figure(out: Path, name: str, direction: Direction) -> list[str]:
    res = _direction_sweep(
        sweeps.SweepAxis("J", -3.0, 3.0, GRID_2D),
        axis2=sweeps.SweepAxis("theta", -math.pi, math.pi, GRID_2D),
        overrides={"delta_c": 0.0},
        directions=(direction,),
        optimal=False,
    )
    return _heatmap_figure(res, out, name, direction, "J / kappa", ylabel="theta")


def fig6a(out: Path) -> list[str]:
    return _j_theta_figure(out, "fig6a", Direction.FORWARD)


def fig6b(out: Path) -> list[str]:
    return _j_theta_figure(out, "fig6b", Direction.BACKWARD)


def _nonreciprocal_figure(out: Path, name: str, target: float) -> list[str]:
    from . import optimizer

    j, theta, report = run_quiet(optimizer.nonreciprocal_point, _BASE, target)
    res = _direction_sweep(
        sweeps.SweepAxis("delta_c", -4.0, 4.0, GRID_1D),
        overrides={"J": j, "theta": theta},
        optimal=False,
    )
    files = _line_figure(res, out, name, "g2", _G2_LABEL)
    files.append(_write(out / f"{name}_point.txt", report.as_text()))
    return files


def fig6c(out: Path) -> list[str]:
    return _nonreciprocal_figure(out, "fig6c", 0.0)


def fig6d(out: Path) -> list[str]:
    return _nonreciprocal_figure(out, "fig6d", 2.5)


# Each preset is built by the function of its name above.
_BUILDERS: dict[str, Callable[[Path], list[str]]] = {
    name: globals()[name] for name in FIGURE_NAMES
}


def figure(name: str, out_dir) -> list[str]:
    """Regenerate a named figure's data and rendering under ``out_dir``.

    Returns the written file names.  Every preset starts from the
    reference working point, and its grids are small enough to run on the
    calling thread.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownFigure(
            f"unknown figure {name!r}; choose from {', '.join(FIGURE_NAMES)}"
        ) from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return builder(out)


__all__ = ["UnknownFigure", "figure"]
