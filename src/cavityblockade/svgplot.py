"""Minimal deterministic SVG rendering for line plots and heatmaps.

No plotting framework is used: the output must be byte-identical across
reruns, so everything (tick placement, number formatting, color mapping,
PNG encoding for heatmap rasters) is done here with fixed rules.
"""

from __future__ import annotations

import base64
import math
import struct
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 76
MARGIN_RIGHT = 26
MARGIN_TOP = 30
MARGIN_BOTTOM = 58

LINE_COLORS = ("#1f6eb4", "#d62728", "#2ca02c", "#9467bd", "#e69500")

# Dark-violet to yellow perceptual ramp used for heatmap rasters.
_RAMP = (
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
)
_MISSING_RGB = (224, 224, 224)

#: Pixels per band of a heatmap raster: whole image rows, at least one.
_BAND_PIXELS = 1 << 12


def _fmt(x: float) -> str:
    return "%.6g" % x


def _nice_step(span: float) -> float:
    raw = span / 5.0  # about six ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def linear_ticks(lo: float, hi: float) -> list[float]:
    """About six ticks on [lo, hi], at multiples of 1, 2, 2.5 or 5 times a power of ten.

    A range that is empty or not finite gets the one tick ``lo``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def log_ticks(lo: float, hi: float) -> list[float]:
    """Decade ticks covering [lo, hi], thinned when there are many decades."""
    d0 = math.floor(math.log10(lo))
    d1 = math.ceil(math.log10(hi))
    stride = max(1, math.ceil((d1 - d0) / 10))
    return [10.0**d for d in range(d0, d1 + 1, stride)]


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _document(body: list[str]) -> str:
    """The SVG page: header, white background, ``body`` and the closing tag."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        *body,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


@dataclass
class Axes:
    """Maps data coordinates into the fixed plot rectangle.

    Both maps take a float or a 1-D array; an array is mapped element by
    element with the same arithmetic.
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    log_y: bool = False

    def x_pix(self, x: float) -> float:
        x0, x1 = self.x_range
        f = (x - x0) / (x1 - x0)
        return MARGIN_LEFT + f * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def y_pix(self, y: float) -> float:
        y0, y1 = self.y_range
        if self.log_y:
            # math.log10 on each value: numpy's log10 differs from it in the
            # last bit for some inputs, which could move a printed digit.
            if isinstance(y, np.ndarray):
                log_y = np.array([math.log10(v) for v in y.tolist()])
            else:
                log_y = math.log10(y)
            f = (log_y - math.log10(y0)) / (math.log10(y1) - math.log10(y0))
        else:
            f = (y - y0) / (y1 - y0)
        return HEIGHT - MARGIN_BOTTOM - f * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)


def _axis_svg(ax: Axes, xlabel: str, ylabel: str, title: str) -> list[str]:
    x0p, x1p = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0p, y1p = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    parts = [
        f'<rect x="{x0p}" y="{y1p}" width="{x1p - x0p}" height="{y0p - y1p}" '
        'fill="none" stroke="#000000" stroke-width="1"/>'
    ]
    for t in linear_ticks(*ax.x_range):
        xp = ax.x_pix(t)
        parts.append(
            f'<line x1="{_fmt(xp)}" y1="{y0p}" x2="{_fmt(xp)}" y2="{y0p + 5}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(xp)}" y="{y0p + 19}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{_fmt(t)}</text>'
        )
    y_tick_values = (
        log_ticks(*ax.y_range) if ax.log_y else linear_ticks(*ax.y_range)
    )
    for t in y_tick_values:
        yp = ax.y_pix(t)
        if yp < y1p - 0.5 or yp > y0p + 0.5:
            continue
        parts.append(
            f'<line x1="{x0p - 5}" y1="{_fmt(yp)}" x2="{x0p}" y2="{_fmt(yp)}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        label = ("1e%d" % round(math.log10(t))) if ax.log_y else _fmt(t)
        parts.append(
            f'<text x="{x0p - 8}" y="{_fmt(yp + 4)}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">{label}</text>'
        )
    parts.append(
        f'<text x="{(x0p + x1p) // 2}" y="{HEIGHT - 14}" font-size="14" '
        f'text-anchor="middle" font-family="sans-serif">{_esc(xlabel)}</text>'
    )
    parts.append(
        f'<text x="20" y="{(y0p + y1p) // 2}" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 20 {(y0p + y1p) // 2})">'
        f"{_esc(ylabel)}</text>"
    )
    if title:
        parts.append(
            f'<text x="{(x0p + x1p) // 2}" y="20" font-size="14" '
            f'text-anchor="middle" font-family="sans-serif">{_esc(title)}</text>'
        )
    return parts


def _line_elements(
    ax: Axes, x: np.ndarray, y: np.ndarray, color: str, dashed: bool
) -> list[str]:
    """Polyline elements, one per contiguous drawable run; gaps stay gaps."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    keep = np.isfinite(x) & np.isfinite(y)
    if ax.log_y:
        keep &= y > 0.0
    y0, y1 = ax.y_range
    keep &= (y >= min(y0, y1)) & (y <= max(y0, y1))
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    idx = np.flatnonzero(keep)
    # Pixel coordinates of every drawn point, interleaved x, y.
    xy = np.column_stack([ax.x_pix(x[idx]), ax.y_pix(y[idx])]).ravel().tolist()
    breaks = (np.flatnonzero(np.diff(idx) > 1) + 1).tolist()
    parts: list[str] = []
    for start, stop in zip([0] + breaks, breaks + [idx.size]):
        if stop - start == 1:
            parts.append(
                f'<circle cx="{_fmt(xy[2 * start])}" cy="{_fmt(xy[2 * start + 1])}" '
                f'r="2" fill="{color}"/>'
            )
        elif stop > start:
            # One C-level format per run, by the _fmt rule.
            pts = " ".join(["%.6g,%.6g"] * (stop - start)) % tuple(xy[2 * start : 2 * stop])
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.6"{dash}/>'
            )
    return parts


def _padded(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] widened by 5% of its span on each side; a range with no
    span by 5% of its magnitude, at least 0.05."""
    pad = 0.05 * (hi - lo) or max(abs(hi), 1.0) * 0.05
    return lo - pad, hi + pad


@dataclass(frozen=True)
class LinePlot:
    """Curves y(x) on shared axes, linear or (``log_y``) logarithmic in y.

    ``curves`` holds ``(x, y, label, dashed)`` tuples, colored in turn from
    ``LINE_COLORS``; :meth:`render` returns the SVG, its axes spanning every
    curve's finite (and, on a log axis, positive) values, with a legend of
    the labeled ones.
    """

    xlabel: str
    ylabel: str
    curves: Sequence[tuple[np.ndarray, np.ndarray, str, bool]]
    title: str = ""
    log_y: bool = False

    def _ranges(self) -> Axes:
        xs = np.concatenate([np.asarray(c[0], float) for c in self.curves])
        ys = np.concatenate([np.asarray(c[1], float) for c in self.curves])
        finite = np.isfinite(ys)
        if self.log_y:
            finite &= ys > 0.0
        ys = ys[finite]
        if ys.size == 0:
            ys = np.array([0.1, 1.0])
        x_range = float(np.nanmin(xs)), float(np.nanmax(xs))
        if x_range[1] == x_range[0]:
            x_range = _padded(*x_range)
        y_lo, y_hi = float(ys.min()), float(ys.max())
        if self.log_y:
            y_range = y_lo / 1.5, y_hi * 1.5
        else:
            y_range = _padded(y_lo, y_hi)
        return Axes(x_range, y_range, log_y=self.log_y)

    def render(self) -> str:
        ax = self._ranges()
        parts = _axis_svg(ax, self.xlabel, self.ylabel, self.title)
        lines = [
            (x, y, label, LINE_COLORS[i % len(LINE_COLORS)], dashed)
            for i, (x, y, label, dashed) in enumerate(self.curves)
        ]
        for x, y, _, color, dashed in lines:
            parts += _line_elements(ax, x, y, color, dashed)
        labeled = [ln for ln in lines if ln[2]]
        for row, (_, _, label, color, dashed) in enumerate(labeled):
            yp = MARGIN_TOP + 14 + 18 * row
            xp = WIDTH - MARGIN_RIGHT - 150
            dash = ' stroke-dasharray="6 4"' if dashed else ""
            parts.append(
                f'<line x1="{xp}" y1="{yp - 4}" x2="{xp + 26}" y2="{yp - 4}" '
                f'stroke="{color}" stroke-width="1.6"{dash}/>'
            )
            parts.append(
                f'<text x="{xp + 32}" y="{yp}" font-size="12" '
                f'font-family="sans-serif">{_esc(label)}</text>'
            )
        return _document(parts)


def _png_bytes(rgb: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as a PNG (fixed zlib level 9)."""
    h, w, _ = rgb.shape
    raw = b"".join(b"\x00" + rgb[i].tobytes() for i in range(h))

    def chunk(tag: bytes, data: bytes) -> bytes:
        out = struct.pack(">I", len(data)) + tag + data
        return out + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)

    header = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", header)
        + chunk(b"IDAT", zlib.compress(raw, 9))
        + chunk(b"IEND", b"")
    )


def _ramp_rgb(frac: np.ndarray) -> np.ndarray:
    """Map values in [0, 1] through the color ramp; NaN handled by caller."""
    frac = np.clip(frac, 0.0, 1.0)
    anchors = np.asarray(_RAMP, dtype=float)
    pos = frac * (len(anchors) - 1)
    lo = np.clip(pos.astype(int), 0, len(anchors) - 2)
    w = (pos - lo)[..., None]
    rgb = anchors[lo] * (1.0 - w) + anchors[lo + 1] * w
    return np.round(rgb).astype(np.uint8)


def _cell(v: np.ndarray) -> float:
    """The spacing of an evenly spaced axis; one unit if it has no span."""
    return (v[-1] - v[0]) / (len(v) - 1) if v[-1] != v[0] else 1.0


@dataclass(frozen=True)
class Heatmap:
    """2-D field rendered as an embedded pixel raster with drawn axes.

    ``z`` is indexed [i, j] with i along the x axis (axis1) and j along the
    y axis (axis2), matching sweep grids; rendering transposes so axis1 is
    horizontal.  The color shows log10(z); cells where it is not finite
    are drawn as missing.  Each ``(x, y)`` of ``overlays`` is drawn over
    the field as a white dashed line.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    xlabel: str
    ylabel: str
    title: str = ""
    color_label: str = "log10 value"
    overlays: Sequence[tuple[np.ndarray, np.ndarray]] = ()

    def render(self) -> str:
        z = np.asarray(self.z, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            field_vals = np.log10(z)
        field_vals[~np.isfinite(field_vals)] = np.nan
        finite = np.isfinite(field_vals)
        if finite.any():
            v_lo = float(np.nanmin(field_vals))
            v_hi = float(np.nanmax(field_vals))
        else:
            v_lo, v_hi = 0.0, 1.0
        if v_hi <= v_lo:
            v_hi = v_lo + 1.0

        # Transpose to image orientation: rows are y (axis2), top row = max y.
        img_vals = field_vals.T[::-1]
        h, w = img_vals.shape
        rgb = np.empty((h, w, 3), dtype=np.uint8)
        band = max(1, _BAND_PIXELS // w)
        for top in range(0, h, band):
            vals = img_vals[top : top + band]
            frac = (vals - v_lo) / (v_hi - v_lo)
            rows = rgb[top : top + band]
            rows[...] = _ramp_rgb(np.nan_to_num(frac))
            rows[~np.isfinite(vals)] = _MISSING_RGB
        png = base64.b64encode(_png_bytes(rgb)).decode("ascii")

        x = np.asarray(self.x, float)
        y = np.asarray(self.y, float)
        # Pixel centers sit on the sample points; pad half a cell outward.
        dx, dy = _cell(x), _cell(y)
        ax = Axes(
            (x[0] - 0.5 * dx, x[-1] + 0.5 * dx),
            (y[0] - 0.5 * dy, y[-1] + 0.5 * dy),
        )
        x0p, y1p = MARGIN_LEFT, MARGIN_TOP
        iw = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        ih = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

        parts = [
            f'<image x="{x0p}" y="{y1p}" width="{iw}" height="{ih}" '
            'preserveAspectRatio="none" image-rendering="pixelated" '
            f'href="data:image/png;base64,{png}"/>',
        ]
        parts += _axis_svg(ax, self.xlabel, self.ylabel, self.title)
        for ox, oy in self.overlays:
            parts += _line_elements(ax, ox, oy, "#ffffff", True)
        parts.append(
            f'<text x="{WIDTH - MARGIN_RIGHT}" y="{HEIGHT - 14}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">'
            f"{_esc(self.color_label)}: {_fmt(v_lo)} to {_fmt(v_hi)}</text>"
        )
        return _document(parts)


__all__ = ["Heatmap", "LinePlot", "linear_ticks", "log_ticks"]
