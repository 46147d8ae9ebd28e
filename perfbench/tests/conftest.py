import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

# the harness imports twowin from this checkout's src/ and its own modules
# from perfbench/, exactly as perfbench/run.py arranges when run as a script
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
