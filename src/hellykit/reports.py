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

Every JSON file the CLI writes goes through `dumps`, which gives exactly the
bytes of json.dumps(obj, sort_keys=True, indent=2) and a final newline (sorted
keys, fixed separators), so equal reports are equal as bytes.  It joins each
container in one step, and a list of all-int, all-float or all-str items in
one map.  Dict keys must be strings, as in every report: json would convert
other scalar keys, `dumps` raises TypeError on them.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

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
    """The bytes of json.dumps(obj, sort_keys=True, indent=2), then a newline."""
    return _encode(obj, "\n") + "\n"


def _encode(o, nl: str) -> str:
    """JSON text of o, whose container lines are indented by `nl`: a newline
    and the indentation of the line o starts on."""
    flat = _FLAT.get(type(o))
    if flat:
        return flat(o)
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        types = set(map(type, o))
        flat = _FLAT.get(types.pop()) if len(types) == 1 else None
        items = map(flat, o) if flat else [_encode(x, inner) for x in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if o else "[]"
    if isinstance(o, dict):
        items = [_quote(k) + ": " + _encode(v, inner)  # str keys only
                 for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    for base, text in _SCALARS:
        if isinstance(o, base):
            return text(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


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
