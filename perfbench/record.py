"""Write a BENCH record: every workload once untraced and once traced.

    python3 perfbench/record.py --label baseline --seed 1

Each run is its own process (peak memory is per process), one after the
other, and measures for the ``run_seconds`` of ``BENCHMARK.json``.  The records, with machine and run description, go to
``perfbench/results/BENCH_<label>.json``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return {**json.loads(record_line), "result": json.loads(result_line)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    records = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            records.append(run_one(w["name"], args.seed, spec["run_seconds"], trace))
            print(f"{w['name']} trace={trace}: {json.dumps(records[-1]['result'])[:160]}",
                  file=sys.stderr)
    out = BENCH / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"label": args.label, "records": records}, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
