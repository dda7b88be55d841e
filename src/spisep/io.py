"""Matrix and graph file formats for the command line tools.

Matrices travel either as canonical JSON ({"order": n, "entries": row-major
array of arrays}) or as real Matrix Market files, which a .mtx or .mm suffix
selects.  Graphs are JSON objects with "order", 1-based "edges", and an
optional "coupling".  Both matrix formats round-trip doubles exactly.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.io
import scipy.sparse

from .core import _as_int, _symmetric_block, as_symmetric
from .graphs import Coupling, LabeledGraph


class ParseError(Exception):
    """Raised when an input file cannot be understood."""


def _has_matrix_market_suffix(path: str) -> bool:
    """The one format rule for writing and reading: a .mtx or .mm suffix, in
    any case, means Matrix Market."""
    return os.path.splitext(path)[1].lower() in (".mtx", ".mm")


def _is_matrix_market(path: str) -> bool:
    # on read, a file of any other suffix is Matrix Market if it opens with the banner
    if _has_matrix_market_suffix(path):
        return True
    try:
        with open(path, "rb") as fh:
            return fh.read(14) == b"%%MatrixMarket"
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def load_matrix(path: str) -> np.ndarray:
    """Read a symmetric matrix from JSON or Matrix Market.  A complex Matrix
    Market file raises ParseError, since its imaginary part would be dropped,
    and so does a matrix that fails the symmetric-block rule of
    :func:`core._symmetric_block`, since its symmetric part is another matrix."""
    if _is_matrix_market(path):
        try:
            M = scipy.io.mmread(path)
        except Exception as exc:
            raise ParseError(f"bad Matrix Market file {path}: {exc}") from exc
        if np.iscomplexobj(M):
            raise ParseError(f"{path}: complex Matrix Market files are not supported")
        M = np.asarray(M.todense() if scipy.sparse.issparse(M) else M, dtype=float)
    else:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"bad matrix file {path}: {exc}") from exc
        try:
            order = _as_int(data["order"])
            M = np.asarray(data["entries"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: expected fields 'order' and 'entries': {exc}") from exc
        if M.shape != (order, order):
            raise ParseError(f"{path}: entries shape {M.shape} does not match order {order}")
    try:
        return _symmetric_block(M)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_matrix(path: str, N) -> None:
    """Write a matrix to exactly ``path``: Matrix Market if its suffix is
    .mtx or .mm, in any case, and JSON otherwise."""
    N = as_symmetric(N)
    if _has_matrix_market_suffix(path):
        # given a name not ending in .mtx, mmwrite would append .mtx to it
        with open(path, "wb") as fh:
            scipy.io.mmwrite(fh, scipy.sparse.coo_matrix(N), symmetry="symmetric")
        return
    payload = {"order": N.shape[0], "entries": N.tolist()}
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_graph(path: str) -> tuple[LabeledGraph, Coupling | None]:
    """Read a labeled graph (and optional coupling) from JSON."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"bad graph file {path}: {exc}") from exc
    try:
        order = _as_int(data["order"])
        edges = [(i, j) for i, j in data.get("edges", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: expected fields 'order' and 'edges': {exc}") from exc
    try:
        G = LabeledGraph.from_edges(order, edges)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    coupling = None
    if data.get("coupling") is not None:
        try:
            coupling = Coupling.from_pairs((a, b) for a, b in data["coupling"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: bad coupling: {exc}") from exc
        if 2 * coupling.p != order:
            raise ParseError(f"{path}: coupling does not cover 1..{order}")
    return G, coupling


def save_graph(path: str, G: LabeledGraph, coupling: Coupling | None = None) -> None:
    payload: dict = {"order": G.order, "edges": sorted(list(e) for e in G.edges)}
    if coupling is not None:
        payload["coupling"] = [list(p) for p in coupling.pairs]
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")
