"""Locate the checkout's ``src`` tree and import ``udnsync`` from it.

The benchmark must time the source it sits beside, never an installed
copy, and must fail when that source is absent.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SourceMissing(RuntimeError):
    pass


def use_source_tree() -> None:
    """Put ``ROOT/src`` first on ``sys.path`` and check ``udnsync`` loads from it."""
    package = SRC / "udnsync"
    if not (package / "__init__.py").is_file():
        raise SourceMissing(f"no udnsync package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import udnsync

    if Path(udnsync.__file__).resolve().parent != package.resolve():
        raise SourceMissing(f"udnsync imported from {udnsync.__file__}, "
                            f"not from {package}")
