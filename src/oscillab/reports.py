"""Report records shared by the constant, certificate, and CLI layers.

A check compares a left-hand side against a right-hand side; its slack is
rhs - lhs and it passes when slack >= -tol * |rhs|.  Skipped checks carry a
machine-readable reason code instead of numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_TOL = 1e-9

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass
class Check:
    label: str
    lhs: float | None
    rhs: float | None
    status: str
    reason: str | None = None

    @property
    def slack(self) -> float | None:
        if self.lhs is None or self.rhs is None:
            return None
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        d: dict = {
            "label": self.label,
            "lhs": None if self.lhs is None else float(self.lhs),
            "rhs": None if self.rhs is None else float(self.rhs),
            "slack": None if self.slack is None else float(self.slack),
            "status": self.status,
        }
        if self.reason is not None:
            d["reason"] = self.reason
        return d


def make_check(label: str, lhs: float, rhs: float, tol: float = DEFAULT_TOL) -> Check:
    lhs = float(lhs)
    rhs = float(rhs)
    ok = (rhs - lhs) >= -tol * abs(rhs)
    return Check(label, lhs, rhs, PASS if ok else FAIL)


def skipped_check(label: str, reason: str) -> Check:
    return Check(label, None, None, SKIPPED, reason=reason)


@dataclass
class CertificateReport:
    """Outcome of one certified inequality chain on one concrete instance."""

    theorem: str
    inputs_digest: str
    checks: list[Check] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def failing(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "inputs_digest": self.inputs_digest,
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
            "meta": self.meta,
        }


@dataclass
class ConstantEstimate:
    """Empirical lower estimate of an extremal constant over a corpus."""

    kind: str
    value: float
    corpus_digest: str
    args: dict
    n_used: int
    n_skipped: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": float(self.value),
            "corpus_digest": self.corpus_digest,
            "args": self.args,
            "n_used": int(self.n_used),
            "n_skipped": int(self.n_skipped),
        }
