#!/usr/bin/env python3
"""Validate the observability artifacts `dragon --trace-out` writes.

Usage: check_obs_artifacts.py TRACE_DIR [--schemas DIR]

Checks, stdlib only (CI runners install nothing):
  1. trace.json and metrics.jsonl end in a valid `#checksum,<fnv1a hex>`
     trailer covering the body exactly (the writer's canonical form);
  2. the trace body is valid JSON and conforms to
     schemas/obs_trace.schema.json;
  3. every metrics line is valid JSON conforming to the variant of
     schemas/obs_metrics.schema.json selected by its `type`;
  4. the cache-accounting invariant holds:
     cache.hits + cache.recomputes == session.procedures;
  5. the save-accounting invariant holds: store.encoded + store.carried
     is 0 (the run saved nothing) or session.procedures (one save encodes
     or carries every procedure once);
  6. the row-accounting invariant holds: rows.reused + rows.recomputed
     == session.rows (each row of an update moved over or was extracted);
  7. the unit-accounting invariant holds: units.reused + units.lowered
     == parse.files_reparsed + parse.files_cached (each update counts every
     source file once, its lowered unit reused or lowered afresh);
  8. counter lines cover the full catalog exactly once (zeros included).

Exit 0 on success; prints the first failure and exits 1 otherwise.
"""

import json
import sys
from pathlib import Path

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1
TRAILER_PREFIX = "#checksum,"


def fail(msg: str) -> None:
    print(f"check_obs_artifacts: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def fnv1a(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def strip_and_verify_trailer(path: Path) -> str:
    """Returns the document body after verifying its checksum trailer."""
    text = path.read_text(encoding="utf-8")
    t = text[:-1] if text.endswith("\n") else text
    nl = t.rfind("\n")
    body_end, last = (nl + 1, t[nl + 1 :]) if nl >= 0 else (0, t)
    if not last.startswith(TRAILER_PREFIX):
        fail(f"{path}: missing `{TRAILER_PREFIX}` trailer line")
    hexsum = last[len(TRAILER_PREFIX) :]
    if hexsum != format(int(hexsum, 16), "016x"):
        fail(f"{path}: non-canonical checksum trailer `{last}`")
    body = text[:body_end]
    actual = fnv1a(body.encode("utf-8"))
    if actual != int(hexsum, 16):
        fail(f"{path}: checksum mismatch (trailer {hexsum}, body {actual:016x})")
    return body


def validate(value, schema, where: str) -> None:
    """Validates the JSON-Schema subset the checked-in schemas use."""
    ty = schema.get("type")
    if ty == "object":
        if not isinstance(value, dict):
            fail(f"{where}: expected object, got {type(value).__name__}")
        for key in schema.get("required", []):
            if key not in value:
                fail(f"{where}: missing required key `{key}`")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                validate(value[key], sub, f"{where}.{key}")
    elif ty == "array":
        if not isinstance(value, list):
            fail(f"{where}: expected array, got {type(value).__name__}")
        items = schema.get("items")
        if items:
            for i, item in enumerate(value):
                validate(item, items, f"{where}[{i}]")
    elif ty == "string":
        if not isinstance(value, str):
            fail(f"{where}: expected string, got {type(value).__name__}")
    elif ty == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            fail(f"{where}: expected integer, got {type(value).__name__}")
    elif ty == "boolean":
        if not isinstance(value, bool):
            fail(f"{where}: expected boolean, got {type(value).__name__}")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{where}: value {value!r} not in {schema['enum']}")


def check_trace(trace_dir: Path, schemas: Path) -> None:
    path = trace_dir / "trace.json"
    body = strip_and_verify_trailer(path)
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as e:
        fail(f"{path}: body is not valid JSON: {e}")
    schema = json.loads((schemas / "obs_trace.schema.json").read_text())
    validate(doc, schema, "trace")
    events = doc["traceEvents"]
    if not any(e.get("ph") == "X" for e in events):
        fail(f"{path}: no complete (ph=X) span events recorded")
    print(f"trace.json: {len(events)} events, checksum ok")


def check_metrics(path: Path, schemas: Path) -> None:
    body = strip_and_verify_trailer(path)
    schema = json.loads((schemas / "obs_metrics.schema.json").read_text())
    variants = schema["variants"]
    counters = {}
    gauges = {}
    for i, line in enumerate(body.splitlines(), start=1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{i}: not valid JSON: {e}")
        ty = rec.get("type")
        if ty not in variants:
            fail(f"{path}:{i}: unknown record type {ty!r}")
        validate(rec, variants[ty], f"{path.name}:{i}")
        if ty == "counter":
            if rec["name"] in counters:
                fail(f"{path}:{i}: duplicate counter `{rec['name']}`")
            counters[rec["name"]] = rec["value"]
        elif ty == "gauge":
            gauges[rec["name"]] = rec["value"]

    for needed in (
        "cache.hits",
        "cache.recomputes",
        "faultpoint.trips",
        "store.encoded",
        "store.carried",
        "rows.reused",
        "rows.recomputed",
        "units.reused",
        "units.lowered",
        "parse.files_reparsed",
        "parse.files_cached",
    ):
        if needed not in counters:
            fail(f"{path}: counter `{needed}` missing from the catalog dump")
    procs = gauges.get("session.procedures")
    if procs is None:
        fail(f"{path}: gauge `session.procedures` missing")
    hits, recomputes = counters["cache.hits"], counters["cache.recomputes"]
    if hits + recomputes != procs:
        fail(
            f"{path}: cache accounting broken: "
            f"hits {hits} + recomputes {recomputes} != procedures {procs}"
        )
    if counters.get("cache.rejects", 0) > recomputes:
        fail(f"{path}: rejects exceed recomputes")
    saved = counters["store.encoded"] + counters["store.carried"]
    if saved not in (0, procs):
        fail(
            f"{path}: save accounting broken: encoded {counters['store.encoded']} + "
            f"carried {counters['store.carried']} is neither 0 nor procedures {procs}"
        )
    rows = gauges.get("session.rows")
    if rows is None:
        fail(f"{path}: gauge `session.rows` missing")
    if counters["rows.reused"] + counters["rows.recomputed"] != rows:
        fail(
            f"{path}: row accounting broken: reused {counters['rows.reused']} + "
            f"recomputed {counters['rows.recomputed']} != rows {rows}"
        )
    units = counters["units.reused"] + counters["units.lowered"]
    files = counters["parse.files_reparsed"] + counters["parse.files_cached"]
    if units != files:
        fail(
            f"{path}: unit accounting broken: reused {counters['units.reused']} + "
            f"lowered {counters['units.lowered']} != files {files}"
        )
    print(
        f"{path.name}: {len(counters)} counters, invariant "
        f"{hits}+{recomputes}=={procs} ok"
    )


def main() -> None:
    args = sys.argv[1:]
    if not args:
        print(__doc__)
        sys.exit(2)
    trace_dir = Path(args[0])
    schemas = Path("schemas")
    if len(args) >= 3 and args[1] == "--schemas":
        schemas = Path(args[2])
    check_trace(trace_dir, schemas)
    check_metrics(trace_dir / "metrics.jsonl", schemas)
    print("check_obs_artifacts: OK")


if __name__ == "__main__":
    main()
