"""Serialization: a small DOT subset and JSON, with canonical emission.

Canonical output is byte-stable: vertices ascending, arcs lexicographic,
fixed key order for JSON.  parse(emit_dot(g)) == g for every digraph on
at most MAX_VERTICES vertices and parse(emit_json(x)) == x for every value.
"""

from __future__ import annotations

import json
import re
import warnings

from .coding import CodingFunction
from .digraph import Digraph
from .errors import ParseError
from .unicast import UnicastInstance


class SerializeWarning(UserWarning):
    pass


MAX_VERTICES = 1 << 16  # far above every search bound


def _vertex_count(n):
    """n, refused before a Digraph allocates per-vertex masks for it."""
    if n > MAX_VERTICES:
        raise ParseError(f"{n} vertices exceed the parser's limit of {MAX_VERTICES}")
    return n


# ---------------------------------------------------------------------------
# DOT subset: digraph [name] { statements }, statements are `v;` or `u -> v;`
# ---------------------------------------------------------------------------

def emit_dot(g):
    lines = ["digraph {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in g.arcs_sorted():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# Whitespace, then a token, the first character no token starts with, or the
# end.  Vertex ids are ASCII digits only: int() would also read "٣" or "３".
_SCAN = re.compile(r"\s*(?:(->|[{};]|\[[^\]]*\]|[A-Za-z_][A-Za-z_0-9]*|[0-9]+)|(\S)|\Z)")
_TOKEN, _BAD = 1, 2


def _is_vertex_id(tok):
    return tok.isascii() and tok.isdigit()


def _position(text, pos):
    """(line, column) of offset pos; linear in pos, so only an error calls it."""
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return line, col


def _tokenize_dot(text):
    """[(token, offset)] in one left-to-right scan."""
    tokens = []
    for m in _SCAN.finditer(text):
        kind = m.lastindex
        if kind == _TOKEN:
            tokens.append((m.group(_TOKEN), m.start(_TOKEN)))
        elif kind == _BAD:
            bad = m.start(_BAD)
            raise ParseError(f"unexpected character {text[bad]!r}", *_position(text, bad))
    return tokens


def parse_dot(text):
    tokens = _tokenize_dot(text)

    def fail(message, i):
        # the token at i, or the last one when the text ends early
        pos = tokens[min(i, len(tokens) - 1)][1] if tokens else 0
        return ParseError(message, *_position(text, pos))

    if not tokens or tokens[0][0] != "digraph":
        raise fail("expected 'digraph'", 0)
    i = 1
    if i < len(tokens) and tokens[i][0] not in "{":
        tok = tokens[i][0]
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            i += 1  # optional graph name
    if i >= len(tokens) or tokens[i][0] != "{":
        raise fail("expected '{'", i)
    i += 1
    arcs = []
    seen = set()
    max_vertex = -1
    while i < len(tokens) and tokens[i][0] != "}":
        tok = tokens[i][0]
        if tok.startswith("["):
            warnings.warn("attribute list ignored", SerializeWarning, stacklevel=2)
            i += 1
            continue
        if not _is_vertex_id(tok):
            raise fail(f"expected a vertex id, got {tok!r}", i)
        u = int(tok)
        max_vertex = max(max_vertex, u)
        i += 1
        if i < len(tokens) and tokens[i][0] == "->":
            i += 1
            if i >= len(tokens) or not _is_vertex_id(tokens[i][0]):
                raise fail("expected a vertex id after '->'", i)
            v = int(tokens[i][0])
            max_vertex = max(max_vertex, v)
            i += 1
            if (u, v) in seen:
                warnings.warn(f"duplicate arc ({u}, {v}) dropped", SerializeWarning, stacklevel=2)
            else:
                seen.add((u, v))
                arcs.append((u, v))
        while i < len(tokens) and tokens[i][0].startswith("["):
            warnings.warn("attribute list ignored", SerializeWarning, stacklevel=2)
            i += 1
        if i < len(tokens) and tokens[i][0] == ";":
            i += 1
        else:
            raise fail("expected ';'", i)
    if i >= len(tokens) or tokens[i][0] != "}":
        raise fail("expected '}'", len(tokens) - 1)
    return Digraph.of(_vertex_count(max_vertex + 1), arcs)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def emit_json(obj):
    if isinstance(obj, Digraph):
        payload = {"n": obj.n, "arcs": [list(a) for a in obj.arcs_sorted()]}
    elif isinstance(obj, CodingFunction):
        payload = {
            "n": obj.n,
            "q": obj.q,
            "support": [list(s) for s in obj.supports],
            "tables": [list(t) for t in obj.tables],
        }
    elif isinstance(obj, UnicastInstance):
        payload = {
            "pairs": [list(p) for p in obj.pairs],
            "intermediates": list(obj.intermediates),
            "arcs": sorted(list(a) for a in obj.arcs),
            "q": obj.q,
        }
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(payload)


def _ints(xs):
    """xs as a tuple of JSON integers; a float, string or boolean is refused, not truncated."""
    xs = tuple(xs)
    for x in xs:
        if type(x) is not int:  # json.loads gives exact ints; True's type is bool
            raise ParseError(f"expected an integer, got {json.dumps(x)}")
    return xs


def _int(x):
    return _ints((x,))[0]


def _from_json_payload(data):
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    try:
        if "pairs" in data:
            return UnicastInstance(
                pairs=tuple(_ints(p) for p in data["pairs"]),
                intermediates=_ints(data.get("intermediates", ())),
                arcs=frozenset(_ints(a) for a in data.get("arcs", ())),
                q=_int(data.get("q", 2)),
            )
        if "support" in data or "tables" in data:
            return CodingFunction(
                n=_int(data["n"]),
                q=_int(data["q"]),
                supports=tuple(_ints(s) for s in data["support"]),
                tables=tuple(_ints(t) for t in data["tables"]),
            )
        if "n" in data:
            arcs = [_ints(a) for a in data.get("arcs", ())]
            dedup = set()
            clean = []
            for a in arcs:
                if a in dedup:
                    warnings.warn(f"duplicate arc {a} dropped", SerializeWarning, stacklevel=3)
                else:
                    dedup.add(a)
                    clean.append(a)
            return Digraph.of(_vertex_count(_int(data["n"])), clean)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"malformed JSON payload: {exc}") from exc
    raise ParseError("JSON object matches no known schema")


def parse_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    return _from_json_payload(data)


def parse(text):
    """Sniff DOT vs JSON and return a Digraph, CodingFunction or instance."""
    head = text.lstrip()
    if head.startswith("digraph"):
        return parse_dot(text)
    if head.startswith("{"):
        return parse_json(text)
    raise ParseError("input is neither DOT ('digraph ...') nor JSON ('{...}')", 1, 1)
