"""``mweaver serve`` with the layer wrappers of ``layers.py`` installed.

Usage (from the repository root)::

    python3 perfbench/traced_serve.py SPANS_FILE serve [serve flags]

Runs the program's own command line unchanged.  SIGUSR1 installs the
wrappers, so a warm-up can run untraced first, and creates
``SPANS_FILE.armed`` once they are in place.  When the server stops
(SIGTERM drains it), the spans and counts are written to ``SPANS_FILE``.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from repro.cli import main  # noqa: E402


def serve(spans_path: str, argv: list[str]) -> int:
    """Run ``repro.cli.main(argv)``; write the spans when it returns."""
    rec = layers.Recorder()
    installed = []

    def arm(_signum, _frame) -> None:
        if not installed:
            installed.append(layers.install(rec))
        Path(f"{spans_path}.armed").touch()

    signal.signal(signal.SIGUSR1, arm)
    try:
        return main(argv)
    finally:
        for patches in installed:
            patches.restore()
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1], sys.argv[2:]))
