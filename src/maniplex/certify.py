"""Tiny shared vocabulary for machine-checkable certificates."""

from __future__ import annotations

from typing import NamedTuple

PASS = "pass"
FAIL = "fail"
SKIP = "skip"
INFO = "info"


class Refusal(RuntimeError):
    """The pipeline declines to go on, and says why: the CLI's exit code 1."""


class Check(NamedTuple):
    name: str
    status: str  # pass | fail | skip | info
    detail: object = None


def passed(name: str, ok: bool, detail: object = None) -> Check:
    return Check(name, PASS if ok else FAIL, detail)


def all_ok(checks: list[Check]) -> bool:
    return all(c.status != FAIL for c in checks)


def checks_to_json(checks: list[Check]) -> list[dict]:
    return [{"name": c.name, "status": c.status, "detail": _jsonable(c.detail)} for c in checks]


def _jsonable(value: object) -> object:
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)
