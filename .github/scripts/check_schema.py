#!/usr/bin/env python3
"""Validate a JSON document against a JSON Schema (the subset the
checked-in schemas use).

Usage: check_schema.py SCHEMA DOC

Keywords checked: type (one name or a list of names, `null` included),
const, pattern, minimum, required, properties, additionalProperties,
items, minItems and maxItems. Other keywords are ignored. Exits 1 at
the first violation, naming its JSON path.
"""

import json
import re
import sys

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def has_type(d, name):
    if name not in TYPES:
        sys.exit(f"schema uses unknown type {name!r}")
    # JSON booleans are not numbers, though Python's bool is an int.
    if name in ("integer", "number") and isinstance(d, bool):
        return False
    return isinstance(d, TYPES[name])


def check(s, d, path):
    t = s.get("type")
    if t is not None:
        names = t if isinstance(t, list) else [t]
        if not any(has_type(d, n) for n in names):
            sys.exit(f"{path}: {d!r} is not {' or '.join(names)}")
    if "const" in s and d != s["const"]:
        sys.exit(f"{path}: {d!r} is not the constant {s['const']!r}")
    if "pattern" in s and isinstance(d, str) and not re.search(s["pattern"], d):
        sys.exit(f"{path}: {d!r} does not match {s['pattern']!r}")
    if "minimum" in s and has_type(d, "number") and d < s["minimum"]:
        sys.exit(f"{path}: {d} is below the minimum {s['minimum']}")
    if isinstance(d, dict):
        for r in s.get("required", []):
            if r not in d:
                sys.exit(f"{path}: missing required {r!r}")
        named = s.get("properties", {})
        extra = s.get("additionalProperties", True)
        for k, v in d.items():
            if k in named:
                check(named[k], v, f"{path}.{k}")
            elif extra is False:
                sys.exit(f"{path}: unexpected property {k!r}")
            elif isinstance(extra, dict):
                check(extra, v, f"{path}.{k}")
    if isinstance(d, list):
        if len(d) < s.get("minItems", 0):
            sys.exit(f"{path}: {len(d)} items, fewer than {s['minItems']}")
        if "maxItems" in s and len(d) > s["maxItems"]:
            sys.exit(f"{path}: {len(d)} items, more than {s['maxItems']}")
        if "items" in s:
            for i, item in enumerate(d):
                check(s["items"], item, f"{path}[{i}]")


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: check_schema.py SCHEMA DOC")
    with open(sys.argv[1]) as f:
        schema = json.load(f)
    with open(sys.argv[2]) as f:
        doc = json.load(f)
    check(schema, doc, "$")
    print(f"{sys.argv[2]}: valid against {sys.argv[1]}")


if __name__ == "__main__":
    main()
