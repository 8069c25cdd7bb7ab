"""CSV export from whole columns.

Every writer in the package formats its rows through :func:`write_csv`: the
columns are converted to Python scalars ``BLOCK`` rows at a time
(``ndarray.tolist``) and mapped through one ``str.format`` row template.
The bytes equal those of formatting each row on its own with the same
template (floats use ``.17g``, which round-trips exactly), while memory stays
bounded by one chunk of text whatever the column length.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .levy_paths import BLOCK

__all__ = ["write_csv"]


def write_csv(out: Path | str, header: str, row: str, *columns) -> None:
    """Write ``header`` and then ``row.format(*values)`` for each index of
    the equal-length ``columns``, one line each."""
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError(f"column lengths differ: {[len(c) for c in cols]}")
    fmt = (row + "\n").format
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, BLOCK):
            fh.write("".join(map(fmt, *(c[lo : lo + BLOCK].tolist() for c in cols))))
