"""Line-oriented text format for matroids.

Grammar (UTF-8, ``#`` starts a comment):

    %matroid v1
    n <count>
    labels <name...>          # optional; defaults to e1..en
    repr <kind>               # circuits | cyclic-flats | uniform | graph
                              #   | laminar | transversal
    <kind-specific body>

Bodies:
  circuits      one line of braced label sets: ``{a b c} {c d e}``
  cyclic-flats  lines ``set {..} rank <int>``
  uniform       one line ``r <int>``
  graph         ``vertices <int>`` then lines ``edge <label> <u> <v>``
  laminar       lines ``cap {..} <int>``
  transversal   lines ``block {..}`` in chain order
"""

from __future__ import annotations

import re

from .core import (MAX_ELEMENTS, Matroid, MatroidError, default_labels, label_mask,
                   validate_rank_axioms)
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

# keyword -> (usage an error quotes, pattern with one group per field of the
# text after the keyword, name an invalid integer is reported under).  In a
# usage ``{..}`` is a braced set, ``<label>`` and ``<kind>`` are words and any
# other ``<..>`` is an integer.  A set line splits at a ``rank`` with no
# brace after it, so a label that contains ``rank`` is never split.
_FORMS = {
    "n": ("n <count>", r"(\S+)", "element count"),
    "repr": ("repr <kind>", r"(\S+)", None),
    "r": ("r <int>", r"(\S+)", "rank"),
    "vertices": ("vertices <int>", r"(\S+)", "vertex count"),
    "edge": ("edge <label> <u> <v>", r"(\S+)\s+(\S+)\s+(\S+)", "endpoint"),
    "set": ("set {..} rank <int>", r"(.*)rank([^{}]*)", "rank"),
    "cap": ("cap {..} <int>", r"(.*}|)(.*)", "capacity"),
    "block": ("block {..}", r"(.*)", None),
}


class ParseError(ValueError):
    """Parse failure with its 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


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
    for token in text.replace("{", " { ").replace("}", " } ").split():
        if token == "{":
            if current is not None:
                raise ParseError(lineno, "nested '{'")
            current = []
        elif current is None:
            raise ParseError(lineno, "unmatched '}'" if token == "}"
                             else f"unexpected token {token!r} outside braces")
        elif token == "}":
            sets.append(current)
            current = None
        else:
            current.append(token)
    if current is not None:
        raise ParseError(lineno, "unterminated '{'")
    return sets


def _mask(lineno: int, names: list[str], index: dict[str, int]) -> int:
    try:
        return label_mask(index, names)
    except MatroidError as exc:
        raise ParseError(lineno, str(exc)) from None


def _reader(usage: str, pattern: str, what: str | None) -> tuple:
    """A ``_FORMS`` entry compiled for :func:`_read`: the pattern, the
    positions of its integer fields, whether field 0 is a braced set, the
    name an invalid integer goes under, and the messages for a line that
    is not of the form and for one whose set is not followed by the rest."""
    specs = re.findall(r"\{\.\.\}|<\w+>", usage)
    ints = tuple(i for i, spec in enumerate(specs) if spec not in ("{..}", "<label>", "<kind>"))
    tail = usage.partition("} ")[2]
    expected = f"expected {usage!r}"
    return (re.compile(pattern), ints, specs[0] == "{..}", what, expected,
            f"missing {tail!r}" if tail else expected)


_READERS = {keyword: _reader(*form) for keyword, form in _FORMS.items()}


def _read(lineno: int, line: str, keyword: str, index: dict[str, int] | None = None) -> tuple:
    """The fields of a ``keyword`` line: words as text, integers as int and the
    braced set as the mask of its labels under ``index``, read after the integers."""
    pattern, ints, has_set, what, expected, missing = _READERS[keyword]
    parts = line.split(None, 1)
    if parts[0] != keyword or len(parts) != 2:
        raise ParseError(lineno, expected)
    match = pattern.fullmatch(parts[1])
    if match is None:  # only a set form's literal can be missing: 'rank <int>'
        raise ParseError(lineno, missing)
    fields = list(match.groups())
    for i in ints:
        try:
            fields[i] = int(fields[i])
        except ValueError:
            raise ParseError(lineno, f"invalid {what} {fields[i].strip()!r}") from None
    if has_set:
        sets = _parse_sets(lineno, fields[0])
        if len(sets) != 1:
            raise ParseError(lineno, f"expected exactly one braced set, got {len(sets)}")
        fields[0] = _mask(lineno, sets[0], index)
    return tuple(fields)


def parse_matroid(text: str) -> Matroid:
    """Parse the text format into a Matroid.

    Parsed text is untrusted, so this is a trust boundary: the finished
    rank table is checked against the rank axioms once, here, and any
    failure (of the axioms or of a constructor's own input checks) is
    raised as a :class:`ParseError` with a line number: that of the later
    offending member when a family check names its members.
    """
    lines = list(_logical_lines(text))
    rest = iter(lines)

    def take():
        line = next(rest, None)
        if line is None:
            raise ParseError(lines[-1][0] if lines else 1, "unexpected end of input")
        return line

    lineno, header = take()
    if header != "%matroid v1":
        raise ParseError(lineno, f"expected '%matroid v1' header, got {header!r}")

    lineno, line = take()
    (n,) = _read(lineno, line, "n")
    if n < 0:
        raise ParseError(lineno, "element count must be nonnegative")
    if n > MAX_ELEMENTS:
        # before the default labels are built, which a huge n would exhaust memory on
        raise ParseError(lineno, f"ground set too large: {n} > {MAX_ELEMENTS}")

    labels = default_labels(n)
    lineno, line = take()
    parts = line.split()
    if parts[0] == "labels":
        if len(parts) != n + 1:
            raise ParseError(lineno, f"expected {n} labels, got {len(parts) - 1}")
        labels = tuple(parts[1:])
        if len(set(labels)) != n:
            raise ParseError(lineno, "element labels must be distinct")
        # a braced set could not name it, nor could the file be written back
        for lab in labels:
            if "{" in lab or "}" in lab:
                raise ParseError(lineno, f"label {lab!r} contains a brace")
        lineno, line = take()
    (kind,) = _read(lineno, line, "repr")
    if kind not in KINDS:
        raise ParseError(lineno, f"unknown repr kind {kind!r}")

    body = list(rest)
    first = body[0][0] if body else lineno
    index = {lab: i for i, lab in enumerate(labels)}
    try:
        if kind == "uniform":
            if len(body) != 1:
                raise ParseError(first, "uniform body is a single 'r <int>' line")
            M = uniform(_read(*body[0], "r")[0], n, labels)
        elif kind == "circuits":
            if len(body) > 1:
                raise ParseError(body[1][0], "circuits body is a single line of sets")
            # a circuit family is not known to be matroidal, so this
            # constructor checks the rank axioms itself
            return matroid_from_circuits(
                labels, [_mask(first, s, index) for s in _parse_sets(*body[0])] if body else [])
        elif kind == "cyclic-flats":
            flats = tuple(_read(*bl, "set", index) for bl in body)
            M = from_cyclic_flats(CyclicFlatFamily(labels, flats))
        elif kind == "graph":
            if not body:
                raise ParseError(lineno, "graph body needs a 'vertices <int>' line")
            (nv,) = _read(*body[0], "vertices")
            if nv < 0:
                raise ParseError(body[0][0], "vertex count must be nonnegative")
            edges = [_read(*bl, "edge") for bl in body[1:]]
            for (lno, _), (_, u, v) in zip(body[1:], edges):
                if not (0 <= u < nv and 0 <= v < nv):
                    raise ParseError(lno, f"edge ({u},{v}) has an invalid endpoint")
            if len(edges) != n:
                raise ParseError(body[-1][0], f"expected {n} edges, got {len(edges)}")
            edge_labels = tuple(e[0] for e in edges)
            if edge_labels != labels:
                # edges define their own labels; they must match the declared order
                if sorted(edge_labels) != sorted(labels):
                    raise ParseError(body[-1][0], "edge labels do not match declared labels")
                order = {lab: i for i, lab in enumerate(edge_labels)}
                edges = [edges[order[lab]] for lab in labels]
            M = cycle_matroid(Multigraph(nv, tuple(e[1:] for e in edges), labels))
        elif kind == "laminar":
            rows = [_read(*bl, "cap", index) for bl in body]
            fam, caps = zip(*rows) if rows else ((), ())
            M = laminar_matroid(LaminarCapacitySystem(labels, fam, caps))
        else:  # transversal
            blocks = tuple(_read(*bl, "block", index)[0] for bl in body)
            M = transversal_matroid(NestedPresentation(labels, blocks))
    except MatroidError as exc:
        # a family check names its members, one per body line: report the later
        members = getattr(exc, "members", ())
        raise ParseError(body[max(members)][0] if members else first, str(exc)) from exc

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
        if not lab or any(ch.isspace() or ch in "{}#" for ch in lab):
            raise MatroidError(f"label {lab!r} cannot be serialized")
    out = ["%matroid v1", f"n {M.n}"]
    if M.n:
        out.append("labels " + " ".join(M.labels))
    out.append("repr cyclic-flats")
    for F, r in M.cyclic_flats():
        out.append("set {" + " ".join(M.names(F)) + "} rank " + str(r))
    return "\n".join(out) + "\n"
