"""Write the reference outputs the benchmark checks every pass against.

Run from the repository root at the commit whose outputs are the
reference, with the default seed:

    python3 perfbench/capture_reference.py

It writes ``perfbench/reference/<workload>.csv.xz`` and the smoke-size
``smoke-<workload>.csv.xz`` for every workload.
"""

import contextlib
import io
import lzma
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("OQMETRO_THREADS", None)

import oqmetro.cli  # noqa: E402

from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS  # noqa: E402


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        for smoke in (False, True):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = oqmetro.cli.main(workload.command(DEFAULT_SEED, smoke))
            if code != 0:
                sys.exit(f"{workload.name}: exit code {code}")
            path = workload.reference_path(smoke)
            with lzma.open(path, "wt", preset=9) as fh:
                fh.write(out.getvalue())
            print(f"{path.relative_to(ROOT)}: {len(out.getvalue())} characters")


if __name__ == "__main__":
    main()
