"""Scattered node sets with optional sampled values, plus CSV round-tripping."""

import csv
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np


@dataclass(frozen=True)
class PointSet:
    """Finite set of pairwise-distinct nodes in R^d, optionally carrying samples.

    Parameters
    ----------
    nodes : (m, d) ndarray
        Node coordinates, one row per node.  Must be finite and pairwise
        distinct.  A 1-D array is promoted to a single column.
    values : (m,) ndarray, optional
        Sampled function values, one per node.
    """

    nodes: np.ndarray
    values: np.ndarray | None = None

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        if nodes.ndim != 2 or nodes.shape[0] < 1:
            raise ValueError("nodes must be a (m, d) array with m >= 1")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("nodes must be finite")
        # exact duplicates are always a construction error; sorted rows put
        # them next to each other (0.0 and -0.0 compare, and sort, equal)
        srt = nodes[np.lexsort(nodes.T)]
        if np.any(np.all(srt[1:] == srt[:-1], axis=1)):
            raise ValueError("nodes must be pairwise distinct")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        if self.values is not None:
            vals = np.asarray(self.values, dtype=float).ravel()
            if vals.shape[0] != nodes.shape[0]:
                raise ValueError(
                    f"got {vals.shape[0]} values for {nodes.shape[0]} nodes"
                )
            if not np.all(np.isfinite(vals)):
                raise ValueError("values must be finite")
            vals.setflags(write=False)
            object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    def is_increasing(self) -> bool:
        """True when d = 1 and the node coordinates strictly increase."""
        if self.dim != 1:
            return False
        x = self.nodes[:, 0]
        return bool(np.all(np.diff(x) > 0))

    def distances(self, x) -> np.ndarray:
        """Euclidean distances from evaluation points to every node.

        ``x`` is one point, (d,) or a scalar for d = 1, giving shape (m,);
        or an (n, d) stack of points, giving shape (n, m).  A distance past
        the largest double is inf, the zero-influence limit the weights
        already map it to, without a numpy overflow warning.
        """
        x = np.asarray(x, dtype=float)
        rows = x if x.ndim == 2 else x.reshape(1, -1)
        if rows.shape[1] != self.dim:
            raise ValueError(f"point has dim {rows.shape[1]}, nodes have dim {self.dim}")
        dist = _norms(self.nodes[None] - rows[:, None, :])
        return dist if x.ndim == 2 else dist[0]

    @classmethod
    def from_csv(cls, path) -> "PointSet":
        """Read nodes from a CSV file with header ``x1,...,xd[,f]``.

        The file is read as UTF-8; a leading byte-order mark is dropped.
        Records whose cells are all blank are skipped, though they count
        in the line numbers.  The x and f cells of all records go through
        one ``map(float, ...)``; only when that fails are the records
        replayed, to name the line of the first malformed one.
        """
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            coord_cols = [i for i, h in enumerate(header) if h.startswith("x")]
            has_values = "f" in header
            if not coord_cols or coord_cols != list(range(len(coord_cols))):
                raise ValueError(
                    f"{path}: header must be x1,...,xd optionally followed by f"
                )
            records = [(lineno, row) for lineno, row in enumerate(reader, start=2)
                       if any(map(str.strip, row))]
        if not records:
            raise ValueError(f"{path}: no data rows")
        cols = coord_cols + [header.index("f")] if has_values else coord_cols
        # itemgetter of one index gives the cell itself, of more a tuple
        picked = map(itemgetter(*cols), map(itemgetter(1), records))
        if len(cols) > 1:
            picked = chain.from_iterable(picked)
        try:
            cells = np.fromiter(map(float, picked), float, len(records) * len(cols))
        except (ValueError, IndexError):
            for lineno, row in records:
                try:
                    [float(row[i]) for i in cols]
                except (ValueError, IndexError):
                    raise ValueError(f"{path}:{lineno}: malformed row") from None
            raise
        cells = cells.reshape(len(records), len(cols))
        d = len(coord_cols)
        return cls(np.ascontiguousarray(cells[:, :d]), cells[:, d] if has_values else None)

    def to_csv(self, path) -> None:
        """Write the node set (and values, when present) as CSV."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            header = [f"x{i + 1}" for i in range(self.dim)]
            if self.values is not None:
                header.append("f")
            writer.writerow(header)
            for i in range(self.m):
                row = [repr(float(v)) for v in self.nodes[i]]
                if self.values is not None:
                    row.append(repr(float(self.values[i])))
                writer.writerow(row)


def _norms(diff) -> np.ndarray:
    """Euclidean norms over the last axis of the node-to-point differences;
    a norm past the largest double is inf, without an overflow warning."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(diff, axis=-1)


def distances_each(nodes, xs) -> np.ndarray:
    """Distances (k, m) from each point of xs (k, d) to the nodes of its
    own node set, the (k, m, d) stack ``nodes``, in one call: row i is
    ``PointSet(nodes[i]).distances(xs[i])``, bit for bit."""
    xs = np.asarray(xs, dtype=float)
    if xs.shape[-1] != nodes.shape[-1]:
        raise ValueError(f"point has dim {xs.shape[-1]}, nodes have dim {nodes.shape[-1]}")
    return _norms(nodes - xs[:, None, :])
