"""Machine-readable verdicts shared by every checker and the CLI."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .errors import BudgetExceeded

SCHEMA_VERSION = "1.0"


@dataclass(frozen=True)
class Report:
    """Outcome of one check or solve.

    verdict is one of "holds", "fails", "count:<k>" or "inconclusive".
    A failing report always carries a witness; a counting report carries
    up to two lexicographically-least solutions.
    """

    command: str
    verdict: str
    witness: Any = None
    details: tuple = field(default_factory=tuple)
    count: Optional[int] = None
    solutions: Optional[tuple] = None
    version: str = SCHEMA_VERSION

    @property
    def ok(self) -> bool:
        return self.verdict == "holds" or self.verdict.startswith("count")

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "command": self.command,
            "verdict": self.verdict,
            "version": self.version,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = list(self.details)
        if self.count is not None:
            out["count"] = self.count
        if self.solutions is not None:
            out["solutions"] = list(self.solutions)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(", ", ": "))


def holds(command: str, details=()) -> Report:
    return Report(command, "holds", details=tuple(details))


def fails(command: str, witness, details=()) -> Report:
    return Report(command, "fails", witness=witness, details=tuple(details))


def counted(command: str, count: int, solutions=(), details=()) -> Report:
    try:
        verdict = f"count:{count}"
    except ValueError:   # past Python's int-to-str digit limit
        raise BudgetExceeded(f"count of {count.bit_length()} bits exceeds "
                             "the int-to-str digit limit") from None
    return Report(command, verdict, count=count,
                  solutions=tuple(solutions), details=tuple(details))


def inconclusive(command: str, details=()) -> Report:
    return Report(command, "inconclusive", details=tuple(details))
