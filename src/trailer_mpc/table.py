"""The package's one table format: a CSV file with a header row, floats by
repr (so a read-back is bit-exact), flags as 0/1 and labels as they are."""

import csv

import numpy as np


def write_table(path, columns):
    """Write ``columns``, ordered header -> 1-D column of one length (an
    array, or a list of values written as they are)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*map(_cells, columns.values())))


def _cells(column) -> list:
    if isinstance(column, list):
        return column
    column = np.asarray(column)
    return (column.astype(int) if column.dtype == bool else column).tolist()


def read_table(path) -> np.ndarray:
    """The table at ``path`` as float columns by name (a structured array,
    one entry per row); a missing column raises ValueError."""
    return np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
