"""Standalone line-level grammar checker for the emitted LP files.

Deliberately independent of the package's own parser so the two can
cross-check each other: this one validates raw lines against regular
expressions and section ordering only.
"""

import re

_NUM = r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TERM = rf"{_NUM} {_NAME}"
_EXPR = rf"-?{_TERM}(?: [+-] {_TERM})*"

_OBJ = re.compile(rf"^ {_NAME}: {_EXPR}$")
_ROW = re.compile(rf"^ {_NAME}: {_EXPR} (<=|>=|=) -?{_NUM}$")
_RANGE_BOUND = re.compile(rf"^ {_NUM} <= {_NAME} <= {_NUM}$")
_LOWER_BOUND = re.compile(rf"^ {_NAME} >= {_NUM}$")
_FREE_BOUND = re.compile(rf"^ {_NAME} free$")
_GENERAL = re.compile(rf"^ {_NAME}$")

_SECTIONS = ["Minimize", "Subject To", "Bounds", "General", "End"]


def check_lp_grammar(text: str) -> list[str]:
    """Return a list of violations; empty means the file is well-formed."""
    errors = []
    lines = [ln for ln in text.split("\n") if ln and not ln.startswith("\\")]
    section = None
    order = []
    counts = {"obj": 0, "rows": 0, "bounds": 0, "general": 0}
    for lineno, ln in enumerate(lines, start=1):
        if ln in _SECTIONS:
            section = ln
            order.append(ln)
            continue
        if section == "Minimize":
            if not _OBJ.match(ln):
                errors.append(f"line {lineno}: bad objective {ln!r}")
            counts["obj"] += 1
        elif section == "Subject To":
            if not _ROW.match(ln):
                errors.append(f"line {lineno}: bad constraint {ln!r}")
            counts["rows"] += 1
        elif section == "Bounds":
            if not any(b.match(ln) for b in (_RANGE_BOUND, _LOWER_BOUND, _FREE_BOUND)):
                errors.append(f"line {lineno}: bad bound {ln!r}")
            counts["bounds"] += 1
        elif section == "General":
            if not _GENERAL.match(ln):
                errors.append(f"line {lineno}: bad general entry {ln!r}")
            counts["general"] += 1
        elif section == "End":
            errors.append(f"line {lineno}: content after End")
        else:
            errors.append(f"line {lineno}: content before Minimize")
    if order != _SECTIONS:
        errors.append(f"bad section order {order}")
    if counts["obj"] != 1:
        errors.append(f"expected exactly one objective line, got {counts['obj']}")
    if counts["rows"] < 1:
        errors.append("no constraints")
    if counts["general"] < 1:
        errors.append("no integer variables")
    return errors
