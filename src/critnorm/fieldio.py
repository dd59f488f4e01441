"""The CSV writer every report in the package goes through, and a
field's plane as CSV.

CSV files are comma-separated with "\n" line ends. Floats are written
with %.17g, so they read back bit for bit; a tuple of floats is one cell
of space-separated %.17g values; anything else is written as str().
"""

import csv

import numpy as np

__all__ = ["csv_cells", "write_csv", "write_csv_slice"]


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


def write_csv_slice(path, field, axis=2):
    """Export one plane of a field as CSV (coord1, coord2, value), %.17g.

    axis selects the sliced dimension; the plane is the one through the
    box center, index n // 2. Vector and tensor fields export their first
    flattened component.
    """
    g = field.grid
    comps = field.data.reshape(-1, g.n, g.n, g.n)
    plane = np.take(comps[0], g.n // 2, axis=axis)
    keep = [ax for ax in range(3) if ax != axis]
    rows = ((g.x[i], g.x[j], plane[i, j]) for i in range(g.n) for j in range(g.n))
    write_csv(path, ["coord%d" % keep[0], "coord%d" % keep[1], "value"], rows)
