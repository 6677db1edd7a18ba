import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"

for path in (str(BENCH), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)
