"""Digest of the golden run, untimed.

    python3 perfbench/golden.py

Runs ``oscillab verify --suite all --trials 50 --seed 0`` and the four sweeps
(c1p, psi, jn-decay, tl-ratio) at config seed 0 with their default sizes, then
prints the sha256 of every file they wrote, in path order, with the
``generated_at`` lines dropped.  Equal digests before and after a change mean
byte-identical reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "OSCILLAB_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

from oscillab import cli  # noqa: E402

SWEEPS = ("c1p", "psi", "jn-decay", "tl-ratio")


def golden_digest(work: Path) -> str:
    """Run the golden commands inside ``work`` and digest what they wrote.

    Paths are passed relative to ``work``: the verify output directory is
    part of the configuration its reports digest.
    """
    Path(work, "golden.cfg").write_text("seed = 0\n")
    commands = [["verify", "--suite", "all", "--trials", "50", "--seed", "0",
                 "--out", "out/verify"]]
    commands += [["--config", "golden.cfg", "sweep", "--quantity", q,
                  "--out", f"out/sweep-{q}.csv"] for q in SWEEPS]
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            # verify exits 1 when a certificate fails; the digest records it.
            if code not in (0, 1):
                raise SystemExit(f"oscillab {' '.join(argv)} exited {code}")
    finally:
        os.chdir(cwd)
    out = Path(work, "out")
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(f"{path.relative_to(out)}\n".encode())
        for line in path.read_text().splitlines(keepends=True):
            if "generated_at" not in line:
                digest.update(line.encode())
    return digest.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-golden-",
                                     dir=ROOT) as tmp:
        print(golden_digest(Path(tmp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
