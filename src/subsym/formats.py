"""Interchange file formats.

Edge lists: first line "n m", then one "u v" line per edge with
0 <= u < v < n. Subdivision graphs add one part-tag line
"parts: V=0..n-1 E=n..n+m-1" after the header, checked on read against
the header's vertex count n + m. Generator files: first line "degree k",
then one permutation per line as a space-separated image list.
Comment lines start with '#' in both formats, and both are UTF-8 text.
"""

from __future__ import annotations

import json
from typing import Iterator, Optional

from .graphs import Graph, GraphError
from .groups import PermGroup
from .perms import Perm
from .transforms import SubdivisionGraph, subdivide


class FormatError(GraphError):
    pass


def _data_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of the text file at path
    that is neither blank nor a '#' comment; a byte sequence that is not
    UTF-8 raises FormatError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def write_graph(path: str, g: Graph, parts: Optional[str] = None) -> None:
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m}\n")
        if parts is not None:
            fh.write(parts + "\n")
        for u, v in g.edge_list:
            fh.write(f"{u} {v}\n")


def write_subdivision(path: str, sg: SubdivisionGraph) -> None:
    n, m = sg.base.n, sg.base.m
    write_graph(path, sg.graph, parts=f"parts: V=0..{n - 1} E={n}..{n + m - 1}")


def read_graph(path: str) -> Graph:
    """Parse an edge-list file; a part-tag line is checked but not returned."""
    g, _ = read_graph_with_parts(path)
    return g


def read_graph_with_parts(path: str) -> tuple[Graph, Optional[int]]:
    """Parse an edge-list file, also returning the V-part size from a
    "parts:" line when one follows the header."""
    header = None
    edges = []
    n_base = None
    for lineno, line in _data_lines(path):
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise FormatError(f"{path}:{lineno}: expected header 'n m'")
            try:
                header = (int(fields[0]), int(fields[1]))
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-integer header") from None
            continue
        if line.startswith("parts:"):
            if n_base is not None:
                raise FormatError(f"{path}:{lineno}: second parts line")
            n_base = _parse_parts_line(path, lineno, fields, header[0])
            continue
        if len(fields) != 2:
            raise FormatError(f"{path}:{lineno}: expected 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-integer endpoint") from None
        if not (0 <= u < v < header[0]):
            raise FormatError(f"{path}:{lineno}: edge ({u}, {v}) out of order/range")
        edges.append((u, v))
    if header is None:
        raise FormatError(f"{path}: empty file")
    if len(edges) != header[1]:
        raise FormatError(f"{path}: header promises {header[1]} edges, found {len(edges)}")
    try:
        return Graph(header[0], edges), n_base
    except GraphError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _parse_parts_line(path: str, lineno: int, fields: list[str], size: int) -> int:
    # "parts: V=0..n-1 E=n..n+m-1", where n + m = size, the header's vertex count
    if len(fields) != 3 or not fields[1].startswith("V=") or not fields[2].startswith("E="):
        raise FormatError(f"{path}:{lineno}: malformed parts line")
    try:
        v_lo, v_hi = (int(x) for x in fields[1][2:].split(".."))
        e_lo, e_hi = (int(x) for x in fields[2][2:].split(".."))
    except ValueError:
        raise FormatError(f"{path}:{lineno}: malformed parts line") from None
    if v_lo != 0 or e_lo != v_hi + 1:
        raise FormatError(f"{path}:{lineno}: parts must be V=0..n-1 E=n..n+m-1")
    if e_hi != size - 1:
        raise FormatError(f"{path}:{lineno}: parts E range ends at {e_hi}, not at the last vertex {size - 1}")
    return v_hi + 1


def read_subdivision(path: str) -> SubdivisionGraph:
    """Parse a subdivision graph file (requires the parts line) and rebuild
    the base graph from the E-vertices; validates the subdivision structure."""
    g, n_base = read_graph_with_parts(path)
    return subdivision_from_parts(path, g, n_base)


def subdivision_from_parts(path: str, g: Graph, n_base: Optional[int]) -> SubdivisionGraph:
    """The subdivision graph that ``read_graph_with_parts(path)`` returned as
    (g, n_base): rebuilds the base graph from the E-vertices and validates
    the subdivision structure, naming ``path`` in every error."""
    if n_base is None:
        raise FormatError(f"{path}: no parts line, not a subdivision file")
    if not (0 < n_base <= g.n):
        raise FormatError(f"{path}: parts line inconsistent with vertex count")
    edge_of = []
    for e in range(n_base, g.n):
        nbrs = g.adjacency[e]
        if len(nbrs) != 2 or any(x >= n_base for x in nbrs):
            raise FormatError(f"{path}: vertex {e} is not a valid subdivision E-vertex")
        edge_of.append((nbrs[0], nbrs[1]))
    try:
        base = Graph(n_base, edge_of)
    except GraphError as exc:
        raise FormatError(f"{path}: {exc}") from None
    sg = subdivide(base)
    if sg.graph != g:
        raise FormatError(f"{path}: edges do not match the subdivision of the base graph")
    return sg


def write_generators(path: str, G: PermGroup) -> None:
    with open(path, "w") as fh:
        fh.write(f"degree {G.degree}\n")
        for p in G.generators:
            fh.write(" ".join(map(str, p.images)) + "\n")


def read_generators(path: str) -> PermGroup:
    degree = None
    gens = []
    for lineno, line in _data_lines(path):
        fields = line.split()
        if degree is None:
            if len(fields) != 2 or fields[0] != "degree":
                raise FormatError(f"{path}:{lineno}: expected header 'degree k'")
            try:
                degree = int(fields[1])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-integer degree") from None
            if degree < 0:
                raise FormatError(f"{path}:{lineno}: negative degree {degree}")
            continue
        try:
            images = [int(x) for x in fields]
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-integer image") from None
        if len(images) != degree:
            raise FormatError(f"{path}:{lineno}: expected {degree} images, got {len(images)}")
        try:
            gens.append(Perm(images))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    if degree is None:
        raise FormatError(f"{path}: empty file")
    return PermGroup(degree, gens)


def write_json_lines(path: str, records: list[dict]) -> None:
    """Stable, diff-friendly report format: one sorted-key JSON object per line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
