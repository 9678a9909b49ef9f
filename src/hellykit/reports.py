"""Report assembly: versioned JSON records that are byte-identical across
reruns with the same configuration and seed.

Schema (hellykit-report/1):
  schema   string, the literal "hellykit-report/1"
  meta     {"tool": str, "version": str}  (static; deliberately no timestamps)
  command  string, the subcommand that produced the report
  config   object, the fully resolved configuration including seeds and guards
  result   object, command-specific payload

Serialization uses sorted keys and fixed separators, so equal reports are
equal as bytes.
"""

from __future__ import annotations

import json

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
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


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
