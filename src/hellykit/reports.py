"""Report assembly: versioned JSON records that are byte-identical across
reruns with the same configuration and seed.

Schema (hellykit-report/1):
  schema   string, the literal "hellykit-report/1"
  meta     {"tool": str, "version": str}  (static; deliberately no timestamps)
  command  string, the subcommand that produced the report
  config   object, the fully resolved configuration including seeds and guards
  result   object, command-specific payload

The harnesses behind analyze, derive, measure and quasiconvex
(helly.analyze, derived.verify_derivation_theorems, relwords.measure_*,
quasiconvex.verify_section5) return their report's `result` object itself,
so the library and the report share one vocabulary; the CLI adds nothing.

Every JSON file the CLI writes comes from `iterencode`, whose pieces join to
exactly the bytes of json.dumps(obj, sort_keys=True, indent=2) and a final
newline (sorted keys, fixed separators), so equal reports are equal as bytes.
A dict yields one piece per key; a generator, and a list of more than 64
items unless they are all int, all float or all str, one piece per item; any
other value is one piece, each container joined in one step.  So the CLI
writes a report to its file piece by piece and never holds its whole text
(8 MiB for a large `gamma build` window).  A generator (types.GeneratorType
only; a set still raises TypeError) is the array of what it yields, read once,
so a window hands over its vertices and edges without building them.  A tuple
is encoded once per (object, indentation) and reused: the vertices of a window
share their element tuples.  The memo is keyed by identity, never by value, as
(1,), (True,) and (1.0,) are equal and hash alike but encode differently; each
entry holds its tuple, so no identity is reused within the call, even where a
generator builds a tuple and drops it.  Dict keys must be strings, as in every
report: json would convert other scalar keys, the encoder raises TypeError.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _quote
from types import GeneratorType

SCHEMA = "hellykit-report/1"
TOOL_VERSION = "0.1.0"


class ReportError(ValueError):
    pass


def build_report(command: str, config: dict, result: dict) -> dict:
    return {
        "schema": SCHEMA,
        "meta": {"tool": "hellykit", "version": TOOL_VERSION},
        "command": command,
        "config": config,
        "result": result,
    }


def render(report: dict) -> str:
    validate_report(report)
    return dumps(report)


def dumps(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2), then a newline."""
    return "".join(iterencode(obj))


def iterencode(obj) -> Iterator[str]:
    """The text of `dumps(obj)` in pieces."""
    memo: dict[tuple[int, str], tuple] = {}  # (id(t), nl) -> (t, its text)

    def pieces(o, nl: str) -> Iterator[str]:
        inner = nl + "  "
        if isinstance(o, dict) and o:
            sep = "{" + inner
            for k, v in sorted(o.items()):
                yield sep + _quote(k) + ": "  # str keys only
                yield from pieces(v, inner)
                sep = "," + inner
            yield nl + "}"
        elif isinstance(o, GeneratorType) or (
                isinstance(o, list) and len(o) > 64 and not _flat(o)):
            sep = "[" + inner
            for x in o:
                yield sep + encode(x, inner)
                sep = "," + inner
            yield "[]" if sep[0] == "[" else nl + "]"  # [] if o yielded none
        else:
            yield encode(o, nl)

    def encode(o, nl: str) -> str:
        """JSON text of o, whose container lines are indented by `nl`: a
        newline and the indentation of the line o starts on."""
        flat = _FLAT.get(type(o))
        if flat:
            return flat(o)
        if isinstance(o, tuple):  # encoded as the list of its items
            hit = memo.get((id(o), nl))
            if hit is None:
                hit = memo[id(o), nl] = (o, encode(list(o), nl))
            return hit[1]
        inner = nl + "  "
        if isinstance(o, GeneratorType):
            o = list(o)
        if isinstance(o, list):
            flat = _flat(o)
            items = map(flat, o) if flat else [encode(x, inner) for x in o]
            return "[" + inner + ("," + inner).join(items) + nl + "]" if o else "[]"
        if isinstance(o, dict):
            items = [_quote(k) + ": " + encode(v, inner)  # str keys only
                     for k, v in sorted(o.items())]
            return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
        for base, text in _SCALARS:
            if isinstance(o, base):
                return text(o)
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    yield from pieces(obj, "\n")
    yield "\n"


def _flat(items):
    """The encoder of every item when all are int, all float or all str."""
    types = set(map(type, items))
    return _FLAT.get(types.pop()) if len(types) == 1 else None


_FLAT = {str: _quote, int: int.__repr__, float: json.dumps}
# bool before int, as True is an int; subclasses are encoded as their base
_SCALARS = ((bool, lambda b: "true" if b else "false"),
            (type(None), lambda _: "null"),
            (str, _quote), (int, int.__repr__), (float, json.dumps))


def validate_report(report: dict) -> None:
    for key in ("schema", "meta", "command", "config", "result"):
        if key not in report:
            raise ReportError(f"report missing key {key!r}")
    if report["schema"] != SCHEMA:
        raise ReportError(f"unknown schema {report['schema']!r}")
    if not isinstance(report["config"], dict) or not isinstance(report["result"], dict):
        raise ReportError("config and result must be objects")
    meta = report["meta"]
    if not isinstance(meta, dict) or "tool" not in meta or "version" not in meta:
        raise ReportError("meta must carry tool and version")
