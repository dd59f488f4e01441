"""Field serialization: flat little-endian binary, plus the CSV writer
every report in the package goes through.

Layout: header {magic "CNLB", version u32, n u32, L f64, ncomp u32}, then
ncomp row-major blocks of n^3 float64. ncomp is 1 for scalars, 3 for
vectors, 9 for tensors.

CSV files are comma-separated with "\n" line ends. Floats are written
with %.17g, so they read back bit for bit; a tuple of floats is one cell
of space-separated %.17g values; anything else is written as str().
"""

import csv
import struct

import numpy as np

from .fields import Grid, ScalarField, TensorField, VectorField

__all__ = ["write_field", "read_field", "csv_cells", "write_csv", "write_csv_slice"]

MAGIC = b"CNLB"
VERSION = 1

_HEADER = struct.Struct("<4sIIdI")


def _ncomp(field):
    if isinstance(field, ScalarField):
        return 1
    if isinstance(field, VectorField):
        return 3
    if isinstance(field, TensorField):
        return 9
    raise TypeError("cannot serialize %r" % type(field).__name__)


def write_field(path, field):
    """Write a field to the flat binary format."""
    ncomp = _ncomp(field)
    g = field.grid
    data = field.data.reshape(ncomp, g.n, g.n, g.n)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, g.n, g.L, ncomp))
        fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def read_field(path, grid=None):
    """Read a field; returns Scalar/Vector/TensorField according to ncomp.

    If grid is given it must match the header; otherwise a Grid is
    constructed from the header values.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("truncated header in %s" % path)
        magic, version, n, L, ncomp = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError("bad magic %r in %s" % (magic, path))
        if version != VERSION:
            raise ValueError("unsupported version %d in %s" % (version, path))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    if raw.size != ncomp * n ** 3:
        raise ValueError(
            "payload has %d values, expected %d" % (raw.size, ncomp * n ** 3)
        )
    if grid is None:
        grid = Grid(n, L)
    elif grid.n != n or grid.L != L:
        raise ValueError("grid mismatch: file has n=%d L=%g" % (n, L))
    data = raw.reshape(ncomp, n, n, n).astype(np.float64)
    if ncomp == 1:
        return ScalarField(grid, data[0])
    if ncomp == 3:
        return VectorField(grid, data)
    if ncomp == 9:
        return TensorField(grid, data.reshape(3, 3, n, n, n))
    raise ValueError("unsupported component count %d" % ncomp)


def csv_cells(row):
    """The cell texts of one CSV row."""
    out = []
    for cell in row:
        if isinstance(cell, float):
            out.append("%.17g" % cell)
        elif isinstance(cell, tuple):
            out.append(" ".join("%.17g" % x for x in cell))
        else:
            out.append(str(cell))
    return out


def write_csv(path, header, rows):
    """Write a header row and then each row, formatted by csv_cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(csv_cells(row))


def write_csv_slice(path, field, axis=2, index=None):
    """Export one plane of a field as CSV (coord1, coord2, value), %.17g.

    axis selects the sliced dimension; index defaults to the plane through
    the box center (n // 2). Vector and tensor fields export their first
    flattened component.
    """
    g = field.grid
    if index is None:
        index = g.n // 2
    comps = field.data.reshape(-1, g.n, g.n, g.n)
    plane = np.take(comps[0], index, axis=axis)
    keep = [ax for ax in range(3) if ax != axis]
    rows = ((g.x[i], g.x[j], plane[i, j]) for i in range(g.n) for j in range(g.n))
    write_csv(path, ["coord%d" % keep[0], "coord%d" % keep[1], "value"], rows)
