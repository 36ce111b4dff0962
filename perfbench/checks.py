"""Correctness checks for one op's output.

``analyze`` reports must match the SHA-256 of their canonical bytes as
recorded at the seed commit, and pass cheap independent invariants.
``verify`` ops must repeat the recorded exit code and ok/FAIL lines,
except a ``remark4`` op that finds a completion: the search may return
any witness, so its verdict is compared with the record and the printed
rows are re-checked by building L with numpy and testing f + L.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

_COMPLETION = re.compile(r"FAIL linear completion found: rows \[([0-9a-fx, ]*)\]")


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def report_invariants(text: str) -> str | None:
    """Walsh and delta counts each sum to (2^m - 1) 2^m; AB only for odd m."""
    rep = json.loads(text)
    m = rep["m"]
    cells = ((1 << m) - 1) << m
    for field in ("walsh_distribution", "delta_distribution"):
        total = sum(rep[field].values())
        if total != cells:
            return f"{field} sums to {total}, not {cells}"
    if rep["is_ab"] and m % 2 == 0:
        return f"is_ab holds at even m={m}"
    return None


def completion_rows(text: str) -> list[int] | None:
    match = _COMPLETION.fullmatch(text.strip())
    if match is None:
        return None
    return [int(tok, 16) for tok in match.group(1).split(",")]


def is_completion(values: np.ndarray, rows: list[int]) -> bool:
    """Does x -> f(x) + L(x) permute, with output bit r of L(x) equal to
    parity(rows[r] & x)?"""
    n = values.size
    m = n.bit_length() - 1
    if len(rows) != m or any(not 0 <= r < n for r in rows):
        return False
    xs = np.arange(n, dtype=np.int64)
    lin = np.zeros(n, dtype=np.int64)
    for r, row in enumerate(rows):
        lin |= (np.bitwise_count(xs & row) & 1).astype(np.int64) << r
    return np.unique(values ^ lin).size == n


def check(op, rc: int, out: str, values: np.ndarray | None, expected: dict) -> str | None:
    """None when the output is correct, else a one-line reason."""
    exp = expected.get(op.key)
    if exp is None:
        return "no recorded expectation for this op"
    if rc != exp["rc"]:
        return f"exit code {rc}, expected {exp['rc']}"
    if op.argv[0] == "analyze":
        if report_digest(out) != exp["sha256"]:
            return "report bytes differ from the recorded digest"
        try:
            return report_invariants(out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"report is not a valid analysis ({exc!r})"
    if exp.get("completion"):
        rows = completion_rows(out)
        if rows is None:
            return "no completion line"
        if not is_completion(values, rows):
            return "printed rows do not complete the table to a permutation"
        return None
    if out.splitlines() != exp["lines"]:
        return "verify lines differ from the record"
    return None
