"""The graph-file line loop, written out line by line, as the reference
for `pugkit.graphs.parse_graph` and its array path.

This is the parser as it stood before the array path: it reads the text
line by line, and its results, exception types and messages are the ones
`parse_graph` must reproduce on every input whose ids are integers.
"""

from pugkit.graphs import VERTEX_CAP, ColoredBipartiteGraph, Graph, GraphFormatError


def parse_graph(text: str) -> tuple[Graph | ColoredBipartiteGraph, str]:
    """Parse the text graph format; returns (graph, name).

    Rejects duplicate and self edges so that round-trips are lossless.
    """
    header = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if parts[0] == "graph" and len(parts) == 3:
                header = ("graph", parts[1], int(parts[2]))
            elif parts[0] == "bigraph" and len(parts) == 4:
                header = ("bigraph", parts[1], int(parts[2]), int(parts[3]))
            else:
                raise GraphFormatError(f"line {lineno}: bad header {line!r}")
            if not all(0 <= size <= VERTEX_CAP for size in header[2:]):
                raise GraphFormatError(f"line {lineno}: vertex count outside [0, {VERTEX_CAP}]")
            continue
        if parts[0] != "e" or len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'e <u> <v>', got {line!r}")
        edges.append((int(parts[1]), int(parts[2])))
    if header is None:
        raise GraphFormatError("empty graph file")
    try:
        if header[0] == "graph":
            return Graph(header[2], edges, strict=True), header[1]
        return ColoredBipartiteGraph(header[2], header[3], edges, strict=True), header[1]
    except ValueError as e:
        raise GraphFormatError(str(e)) from e
