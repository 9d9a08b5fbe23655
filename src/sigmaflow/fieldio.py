"""Plain-text field dumps.

Format, version 1: a single header line

    sigmaflow-field v1; dims=32,32,32; axis=pole_shifted,pole_shifted,periodic; chart=round_sphere

followed by one line per grid node in row-major order, one scalar value
per line. Values use repr-exact %.17g so a round trip preserves every bit.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

from .conformal import slab
from .errors import ConfigurationError, NumericError
from .geometry import PERIODIC, POLE

FORMAT_TAG = "sigmaflow-field"
FORMAT_VERSION = 1
# a dump writes a repeated line in blocks of at most this many copies
BLOCK_LINES = 1024


def _require_finite(values, path):
    if not np.all(np.isfinite(values)):
        raise NumericError(f"refusing to write non-finite values to {path}")


def _header(geom):
    g = geom.grid
    dims = ",".join(str(s) for s in g.shape)
    axis = ",".join(g.axis_kind)
    return (f"{FORMAT_TAG} v{FORMAT_VERSION}; dims={dims}; "
            f"axis={axis}; chart={geom.name}")


def _atomic_write(path, lines, end="\n"):
    """Stream the lines (any iterable of str), each followed by end,
    into path.tmp, then move it over path."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.writelines(f"{line}{end}" for line in lines)
    os.replace(tmp, path)


def write_scalar_field(path, geom, values):
    """Dump values, any array that broadcasts to the grid. Each value of
    its slab (conformal.slab: a grid, a line, a constant) is formatted
    once and its line repeated, BLOCK_LINES at a time, as often as the
    later axes repeat it: a zonal line costs N formats, not N^3."""
    shape = geom.grid.shape
    lead, values = slab(values, shape)
    _require_finite(values, path)
    repeat = math.prod(shape[lead:])
    lines = map("%.17g\n".__mod__, values.flat)
    if repeat > 1:
        blocks = [min(BLOCK_LINES, repeat - start)
                  for start in range(0, repeat, BLOCK_LINES)]
        text = (line * count for line in lines for count in blocks)
    else:
        text = iter(lambda: "".join(itertools.islice(lines, BLOCK_LINES)), "")
    _atomic_write(path, itertools.chain((_header(geom) + "\n",), text),
                  end="")


def _parse_header(line):
    parts = [p.strip() for p in line.strip().split(";")]
    tag = parts[0].split()
    if len(tag) != 2 or tag[0] != FORMAT_TAG or not tag[1].startswith("v"):
        raise ConfigurationError(f"not a field dump: bad header {line!r}")
    if tag[1] != f"v{FORMAT_VERSION}":
        raise ConfigurationError(f"unsupported field dump version {tag[1][1:]}")
    meta = {}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        meta[key.strip()] = value.strip()
    for key in ("dims", "axis", "chart"):
        if key not in meta:
            raise ConfigurationError(f"field dump header has no key '{key}'")
    meta["dims"] = tuple(int(d) if d.strip().isdigit() else 0
                         for d in meta["dims"].split(","))
    meta["axis"] = tuple(meta["axis"].split(","))
    if (min(meta["dims"]) < 1 or len(meta["axis"]) != len(meta["dims"])
            or not set(meta["axis"]) <= {POLE, PERIODIC}):
        raise ConfigurationError(f"bad dims or axis kinds in header {line!r}")
    return meta


def read_field(path):
    """Read a dump; returns (array with the grid shape, meta)."""
    with open(path) as fh:
        header = fh.readline()
        meta = _parse_header(header)
        data = [line for line in fh if line.strip()]
    shape = meta["dims"]
    count = int(np.prod(shape))
    if len(data) != count:
        raise ConfigurationError(
            f"field dump has {len(data)} rows, grid needs {count}")
    values = np.empty(count)
    for i, row in enumerate(data):
        try:
            values[i] = float(row)
        except ValueError:
            values[i] = math.nan
        if not math.isfinite(values[i]):
            raise ConfigurationError(
                f"field dump row {i + 1} holds {row.strip()!r}; "
                "expected a finite number")
    return values.reshape(shape), meta
