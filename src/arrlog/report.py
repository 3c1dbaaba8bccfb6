"""Structured run reports: a human table plus deterministic JSON.

The JSON document is the stable interface; it contains no timing data so
that identical flags reproduce byte-identical output.  Wall time, of the
whole run and of each claim record (the time since the record before it),
goes to the human-readable rendering only.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


PASS = "pass"
FAIL = "fail"
UNCERTIFIED = "uncertified"
SKIP = "skip"


@dataclass
class ClaimRecord:
    claim_id: str
    anchor: str
    status: str
    data: dict = field(default_factory=dict)
    #: wall time since the report's previous record (or its creation)
    seconds: float | None = field(default=None, compare=False)

    def as_dict(self):
        return {
            "id": self.claim_id,
            "anchor": self.anchor,
            "status": self.status,
            "data": self.data,
        }


@dataclass
class Report:
    command: str
    field_spec: str
    primes: list = field(default_factory=list)
    seed: int | None = None
    bounds: dict = field(default_factory=dict)
    claims: list = field(default_factory=list)
    wall_time: float | None = None
    _last: float = field(default_factory=time.perf_counter, init=False, repr=False, compare=False)

    def add(self, claim_id: str, anchor: str, ok, data=None, uncertified=False):
        if ok is None:
            status = SKIP
        elif uncertified:
            status = UNCERTIFIED
        else:
            status = PASS if ok else FAIL
        now = time.perf_counter()
        self.claims.append(ClaimRecord(claim_id, anchor, status, _jsonable(data or {}), now - self._last))
        self._last = now
        return self.claims[-1]

    @property
    def ok(self) -> bool:
        return all(c.status in (PASS, SKIP) for c in self.claims)

    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def as_dict(self):
        return {
            "command": self.command,
            "field": self.field_spec,
            "primes": list(self.primes),
            "seed": self.seed,
            "bounds": self.bounds,
            "claims": [c.as_dict() for c in self.claims],
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def human(self) -> str:
        lines = []
        lines.append(f"command: {self.command}")
        lines.append(f"field:   {self.field_spec}")
        if self.primes:
            lines.append(f"primes:  {', '.join(str(p) for p in self.primes)}")
        if self.seed is not None:
            lines.append(f"seed:    {self.seed}")
        width = max((len(c.claim_id) for c in self.claims), default=10)
        lines.append("-" * (width + 18))
        for c in self.claims:
            mark = {PASS: "PASS", FAIL: "FAIL", UNCERTIFIED: "UNCERT", SKIP: "skip"}[c.status]
            seconds = "" if c.seconds is None else f"{c.seconds:8.2f}s"
            lines.append(f"{c.claim_id.ljust(width)}  {mark:<6}{seconds}".rstrip())
            if c.status == FAIL and c.data:
                detail = json.dumps(c.data, sort_keys=True)
                if len(detail) > 140:
                    detail = detail[:137] + "..."
                lines.append(f"{' ' * width}  {detail}")
        lines.append("-" * (width + 18))
        npass = sum(1 for c in self.claims if c.status == PASS)
        lines.append(
            f"{npass}/{len(self.claims)} claims pass"
            + ("" if self.ok else "  [FAILURES]")
        )
        if self.wall_time is not None:
            lines.append(f"wall time: {self.wall_time:.2f}s")
        return "\n".join(lines)


def _jsonable(x):
    from fractions import Fraction

    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, (int, str, float)):
        return x
    return str(x)
