"""Named figure presets: fixed grids over the reference working point.

Each figure writes its data as CSV (the contract) plus a simple SVG
rendering.  Grids and axis ranges are fixed so reruns are bit-identical.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path
from typing import Callable

import numpy as np

from . import svgplot, sweeps
from .params import FIGURE_NAMES, ConfigError, Direction, RegimeWarning
from .params import _derive, reference_params


class UnknownFigure(ConfigError, KeyError):
    """Requested figure name is not one of the built-in presets."""


GRID_1D = 601
GRID_2D = 201

#: The working point every preset starts from.
_BASE = reference_params()

_LABELS = {"g2": "g2(0)", "n_paper": "n (leading order)"}
_DC_LABEL = "delta_c / kappa"


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return path.name


def _table_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> str:
    rows = sweeps._csv_rows(columns, [True] * len(columns))
    return sweeps._write_lines(path, [",".join(header)], rows)


def _delta_c_svg(out: Path, name: str, observable: str, curves: list) -> str:
    """``name``.svg: the ``curves`` of ``observable`` over delta_c, log in y."""
    plot = svgplot.LinePlot(_DC_LABEL, _LABELS[observable], curves, title=name, log_y=True)
    return _write(out / f"{name}.svg", plot.render())


def _line_figure(result: sweeps.SweepResult, out: Path, name: str) -> list[str]:
    files = sweeps.write_sweep_csv(result, out / f"{name}.csv")
    directions = result.spec.directions
    curves = [(result.values1, result.observable_grid(d), d.value, False) for d in directions]
    files.append(_delta_c_svg(out, name, result.spec.observable, curves))
    return files


def _heatmap_figure(
    result: sweeps.SweepResult,
    out: Path,
    name: str,
    xlabel: str,
    *,
    ylabel: str = _DC_LABEL,
    overlays: tuple[tuple[np.ndarray, np.ndarray], ...] = (),
) -> list[str]:
    files = sweeps.write_sweep_csv(result, out / f"{name}.csv")
    (direction,) = result.spec.directions
    heat = svgplot.Heatmap(
        result.values1, result.values2, result.observable_grid(direction), xlabel, ylabel,
        title=name, color_label=f"log10 {result.spec.observable}", overlays=overlays,
    )
    files.append(_write(out / f"{name}.svg", heat.render()))
    return files


def fig2a(out: Path) -> list[str]:
    axis = sweeps.SweepAxis("delta_c", -4.0, 2.0, GRID_1D)
    res = sweeps.run_sweep(sweeps.SweepSpec(axis, optimal_j_theta=True), _BASE)
    return _line_figure(res, out, "fig2a")


def fig2b(out: Path) -> list[str]:
    axis = sweeps.SweepAxis("delta_c", -4.0, 2.0, GRID_1D)
    spec = sweeps.SweepSpec(axis, observable="n_paper", optimal_j_theta=True)
    res = sweeps.run_sweep(spec, _BASE)
    return _line_figure(res, out, "fig2b")


def _optimum_figure(
    out: Path, name: str, axis: sweeps.SweepAxis, xlabel: str, *, overlay: bool = False
) -> list[str]:
    """The forward g2 over ``axis`` x delta_c at the optimal (J, theta) of
    each point, and the optimum along ``axis`` in ``<name>_optimum.csv``;
    ``overlay`` draws the optimal delta_c over the heatmap."""
    d = Direction.FORWARD
    spec = sweeps.SweepSpec(
        axis,
        sweeps.SweepAxis("delta_c", -4.0, 4.0, GRID_2D),
        directions=(d,),
        optimal_j_theta=True,
    )
    res = sweeps.run_sweep(spec, _BASE)
    dc_opt = res.delta_c_opt[d][:, 0]
    files = _heatmap_figure(
        res, out, name, xlabel, overlays=((res.values1, dc_opt),) if overlay else ()
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
    d = Direction.FORWARD
    axis = sweeps.SweepAxis("delta_e", -3.0, 3.0, GRID_1D)
    spec = sweeps.SweepSpec(axis, directions=(d,), optimal_j_theta=True)
    res = sweeps.run_sweep(spec, _BASE)
    e_he = _derive(_BASE, {"J": res.j_used[d]})[0]["e_he"]
    files = [
        _table_csv(
            out / "fig3b.csv",
            ["delta_e", "e_he", "J", "theta", "delta_c_opt"],
            [res.values1, e_he, res.j_used[d], res.theta_used[d], res.delta_c_opt[d]],
        )
    ]
    curve = (res.values1, e_he, "", False)
    plot = svgplot.LinePlot("delta_e / kappa", "optimal e_he / kappa", [curve], title="fig3b")
    files.append(_write(out / "fig3b.svg", plot.render()))
    return files


def _microwave_figure(out: Path, name: str, observable: str) -> list[str]:
    """``name``'s CSV and SVG: ``observable`` over delta_c with the microwave
    on and off, at the microwave-on optimal (J, theta).

    The microwave-off system has no exact cancellation point, so both curves
    share the drive-on optimum; only e_eg changes, along the sweep's second
    axis: its columns are e_eg = 0 and the reference e_eg.
    """
    from . import optimizer

    point = optimizer.solve_optimal(_BASE)
    spec = sweeps.SweepSpec(
        sweeps.SweepAxis("delta_c", -1.0, 2.0, GRID_1D),
        sweeps.SweepAxis("e_eg", 0.0, _BASE.e_eg, 2),
        overrides={"J": point.J, "theta": point.theta},
        directions=(Direction.FORWARD,),
        observable=observable,
    )
    res = sweeps.run_sweep(spec, _BASE)
    grid = res.values1
    off, on = res.stats[Direction.FORWARD][observable].T
    files = [
        _table_csv(
            out / f"{name}.csv",
            ["delta_c", f"{observable}_microwave_on", f"{observable}_microwave_off"],
            [grid, on, off],
        )
    ]
    curves = [(grid, on, "e_eg = %g" % _BASE.e_eg, False), (grid, off, "e_eg = 0", True)]
    files.append(_delta_c_svg(out, name, observable, curves))
    return files


def fig3c(out: Path) -> list[str]:
    return _microwave_figure(out, "fig3c", "g2")


def fig3d(out: Path) -> list[str]:
    return _microwave_figure(out, "fig3d", "n_paper")


def fig5a(out: Path) -> list[str]:
    axis = sweeps.SweepAxis("g", 2.0, 14.0, GRID_2D)
    return _optimum_figure(out, "fig5a", axis, "g / kappa")


def fig5b(out: Path) -> list[str]:
    axis = sweeps.SweepAxis("delta_c", -4.0, 4.0, GRID_1D)
    spec = sweeps.SweepSpec(axis, overrides={"g": 6.7}, optimal_j_theta=True)
    res = sweeps.run_sweep(spec, _BASE)
    return _line_figure(res, out, "fig5b")


def fig5c(out: Path) -> list[str]:
    spec = sweeps.SweepSpec(
        sweeps.SweepAxis("kappa1", 0.02, 1.98, GRID_2D),
        sweeps.SweepAxis("delta_c", -4.0, 4.0, GRID_2D),
        overrides={"g": 6.7},
        directions=(Direction.FORWARD,),
        optimal_j_theta=True,
    )
    res = sweeps.run_sweep(spec, _BASE)
    return _heatmap_figure(res, out, "fig5c", "kappa1 / kappa")


def _j_theta_figure(out: Path, name: str, direction: Direction) -> list[str]:
    spec = sweeps.SweepSpec(
        sweeps.SweepAxis("J", -3.0, 3.0, GRID_2D),
        sweeps.SweepAxis("theta", -math.pi, math.pi, GRID_2D),
        overrides={"delta_c": 0.0},
        directions=(direction,),
    )
    res = sweeps.run_sweep(spec, _BASE)
    return _heatmap_figure(res, out, name, "J / kappa", ylabel="theta")


def fig6a(out: Path) -> list[str]:
    return _j_theta_figure(out, "fig6a", Direction.FORWARD)


def fig6b(out: Path) -> list[str]:
    return _j_theta_figure(out, "fig6b", Direction.BACKWARD)


def _nonreciprocal_figure(out: Path, name: str, target: float) -> list[str]:
    from . import optimizer

    j, theta, report = optimizer.nonreciprocal_point(_BASE, target)
    axis = sweeps.SweepAxis("delta_c", -4.0, 4.0, GRID_1D)
    spec = sweeps.SweepSpec(axis, overrides={"J": j, "theta": theta})
    res = sweeps.run_sweep(spec, _BASE)
    files = _line_figure(res, out, name)
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
    calling thread.  RegimeWarnings are silenced: a preset's grids and
    points lie where the figure needs them, regime or not.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownFigure(
            f"unknown figure {name!r}; choose from {', '.join(FIGURE_NAMES)}"
        ) from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return builder(out)


__all__ = ["UnknownFigure", "figure"]
