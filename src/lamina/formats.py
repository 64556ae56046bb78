"""Line-oriented text format for matroids.

Grammar (UTF-8, ``#`` starts a comment):

    %matroid v1
    n <count>
    labels <name...>          # optional; defaults to e1..en
    repr <kind>               # circuits | cyclic-flats | uniform | graph
                              #   | laminar | transversal
    <kind-specific body>

Bodies:
  circuits    one line of brace-delimited label sets: {a b c} {c d e}
  cyclic-flats  lines ``set {a b} rank 2``
  uniform     ``r <int>``
  graph       ``vertices <int>`` then lines ``edge <label> <u> <v>``
  laminar     lines ``cap {a b c} 2``
  transversal lines ``block {a b c}`` in chain order
"""

from __future__ import annotations

from .core import MAX_ELEMENTS, Matroid, MatroidError, validate_rank_axioms
from .constructions import (
    CyclicFlatFamily,
    LaminarCapacitySystem,
    Multigraph,
    NestedPresentation,
    cycle_matroid,
    from_cyclic_flats,
    laminar_matroid,
    matroid_from_circuits,
    transversal_matroid,
    uniform,
)

KINDS = ("circuits", "cyclic-flats", "uniform", "graph", "laminar", "transversal")


class ParseError(ValueError):
    """Parse failure with 1-based line (and column when known)."""

    def __init__(self, line: int, message: str, column: int | None = None):
        at = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{at}: {message}")
        self.line = line
        self.column = column


def _logical_lines(text: str):
    """Yield (lineno, stripped content) skipping blanks and comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield lineno, content


def _parse_sets(lineno: int, text: str) -> list[list[str]]:
    """Parse a sequence of brace-delimited sets: ``{a b} {c}``."""
    sets: list[list[str]] = []
    current: list[str] | None = None
    col = 0
    for token in text.replace("{", " { ").replace("}", " } ").split():
        col += 1
        if token == "{":
            if current is not None:
                raise ParseError(lineno, "nested '{'")
            current = []
        elif token == "}":
            if current is None:
                raise ParseError(lineno, "unmatched '}'")
            sets.append(current)
            current = None
        else:
            if current is None:
                raise ParseError(lineno, f"unexpected token {token!r} outside braces")
            current.append(token)
    if current is not None:
        raise ParseError(lineno, "unterminated '{'")
    return sets


def _one_set(lineno: int, text: str) -> list[str]:
    sets = _parse_sets(lineno, text)
    if len(sets) != 1:
        raise ParseError(lineno, f"expected exactly one braced set, got {len(sets)}")
    return sets[0]


def _int(lineno: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(lineno, f"invalid {what} {text!r}") from None


def parse_matroid(text: str) -> Matroid:
    """Parse the text format into a Matroid.

    Parsed text is untrusted, so this is a trust boundary: the finished
    rank table is checked against the rank axioms once, here, and any
    failure (of the axioms or of a constructor's own input checks) is
    raised as a :class:`ParseError` with a line number.
    """
    lines = list(_logical_lines(text))
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise ParseError(last, "unexpected end of input")
        out = lines[pos]
        pos += 1
        return out

    lineno, header = take()
    if header != "%matroid v1":
        raise ParseError(lineno, f"expected '%matroid v1' header, got {header!r}")

    lineno, decl = take()
    parts = decl.split()
    if parts[0] != "n" or len(parts) != 2:
        raise ParseError(lineno, "expected 'n <count>'")
    n = _int(lineno, parts[1], "element count")
    if n < 0:
        raise ParseError(lineno, "element count must be nonnegative")
    if n > MAX_ELEMENTS:
        # checked before the default labels are built, which a huge n would
        # exhaust memory on
        raise ParseError(lineno, f"ground set too large: {n} > {MAX_ELEMENTS}")

    labels = tuple(f"e{i + 1}" for i in range(n))
    lineno, decl = take()
    parts = decl.split()
    if parts[0] == "labels":
        if len(parts) != n + 1:
            raise ParseError(lineno, f"expected {n} labels, got {len(parts) - 1}")
        labels = tuple(parts[1:])
        lineno, decl = take()
        parts = decl.split()

    if parts[0] != "repr" or len(parts) != 2:
        raise ParseError(lineno, "expected 'repr <kind>'")
    kind = parts[1]
    if kind not in KINDS:
        raise ParseError(lineno, f"unknown repr kind {kind!r}")

    body = lines[pos:]
    first = body[0][0] if body else lineno
    index = {lab: i for i, lab in enumerate(labels)}

    def mask(lineno, names):
        out = 0
        for nm in names:
            if nm not in index:
                raise ParseError(lineno, f"unknown element label {nm!r}")
            out |= 1 << index[nm]
        return out

    try:
        if kind == "uniform":
            if len(body) != 1:
                raise ParseError(first, "uniform body is a single 'r <int>' line")
            blineno, bline = body[0]
            bparts = bline.split()
            if bparts[0] != "r" or len(bparts) != 2:
                raise ParseError(blineno, "expected 'r <int>'")
            M = uniform(_int(blineno, bparts[1], "rank"), n, labels)

        elif kind == "circuits":
            if len(body) > 1:
                raise ParseError(body[1][0], "circuits body is a single line of sets")
            circs = []
            if body:
                blineno, bline = body[0]
                circs = [mask(blineno, s) for s in _parse_sets(blineno, bline)]
            # a circuit family is not known to be matroidal, so this
            # constructor checks the rank axioms itself
            return matroid_from_circuits(labels, circs)

        elif kind == "cyclic-flats":
            entries = []
            for blineno, bline in body:
                bparts = bline.split(None, 1)
                if bparts[0] != "set" or len(bparts) != 2:
                    raise ParseError(blineno, "expected 'set {..} rank <int>'")
                rest = bparts[1]
                if "rank" not in rest:
                    raise ParseError(blineno, "missing 'rank <int>'")
                set_text, rank_text = rest.rsplit("rank", 1)
                r = _int(blineno, rank_text.strip(), "rank")
                entries.append((mask(blineno, _one_set(blineno, set_text)), r))
            M = from_cyclic_flats(CyclicFlatFamily(labels, tuple(entries)))

        elif kind == "graph":
            if not body:
                raise ParseError(lineno, "graph body needs a 'vertices <int>' line")
            blineno, bline = body[0]
            bparts = bline.split()
            if bparts[0] != "vertices" or len(bparts) != 2:
                raise ParseError(blineno, "expected 'vertices <int>'")
            nv = _int(blineno, bparts[1], "vertex count")
            edges = []
            edge_labels = []
            for blineno, bline in body[1:]:
                bparts = bline.split()
                if bparts[0] != "edge" or len(bparts) != 4:
                    raise ParseError(blineno, "expected 'edge <label> <u> <v>'")
                edge_labels.append(bparts[1])
                edges.append((_int(blineno, bparts[2], "endpoint"),
                              _int(blineno, bparts[3], "endpoint")))
            if len(edges) != n:
                raise ParseError(blineno, f"expected {n} edges, got {len(edges)}")
            if tuple(edge_labels) != labels:
                # edges define their own labels; they must match the declared order
                if sorted(edge_labels) != sorted(labels):
                    raise ParseError(blineno, "edge labels do not match declared labels")
                order = {lab: i for i, lab in enumerate(edge_labels)}
                edges = [edges[order[lab]] for lab in labels]
            M = cycle_matroid(Multigraph(nv, tuple(edges), labels))

        elif kind == "laminar":
            fam = []
            caps = []
            for blineno, bline in body:
                bparts = bline.split(None, 1)
                if bparts[0] != "cap" or len(bparts) != 2:
                    raise ParseError(blineno, "expected 'cap {..} <int>'")
                set_text, _, cap_text = bparts[1].rpartition("}")
                set_text += "}"
                cap = _int(blineno, cap_text.strip(), "capacity")
                fam.append(mask(blineno, _one_set(blineno, set_text)))
                caps.append(cap)
            M = laminar_matroid(LaminarCapacitySystem(labels, tuple(fam), tuple(caps)))

        else:  # transversal
            blocks = []
            for blineno, bline in body:
                bparts = bline.split(None, 1)
                if bparts[0] != "block" or len(bparts) != 2:
                    raise ParseError(blineno, "expected 'block {..}'")
                blocks.append(mask(blineno, _one_set(blineno, bparts[1])))
            M = transversal_matroid(NestedPresentation(labels, tuple(blocks)))
    except MatroidError as exc:
        raise ParseError(first, str(exc)) from exc

    v = validate_rank_axioms(M.rank_table, M.n)
    if v is not None:
        raise ParseError(first, str(v))
    return M


def serialize_matroid(M: Matroid) -> str:
    """Serialize via the cyclic-flats representation.

    The cyclic flats with their ranks determine the matroid, and
    re-synthesis reproduces the rank table exactly, so
    ``parse(serialize(M)) == M`` under labeled equality.
    """
    for lab in M.labels:
        if any(ch.isspace() for ch in lab) or "{" in lab or "}" in lab or "#" in lab:
            raise MatroidError(f"label {lab!r} cannot be serialized")
    out = ["%matroid v1", f"n {M.n}"]
    if M.n:
        out.append("labels " + " ".join(M.labels))
    out.append("repr cyclic-flats")
    for F, r in M.cyclic_flats():
        out.append("set {" + " ".join(M.names(F)) + "} rank " + str(r))
    return "\n".join(out) + "\n"
