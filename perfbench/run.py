"""perfbench runner: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 15 --trace 0

Prints a human-readable report, then as its last line a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` list,
with ``--trace 1`` its ``per_layer`` list (layers a workload does not
reach read 0).  Exits non-zero, printing no result, when the program
or the benchmark spec is missing or a run cannot be completed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"


def _fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {ROOT / 'src' / 'repro'}")
    if not spec_path.is_file():
        return _fail(f"no benchmark spec at {spec_path}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    # A terminated run still stops its servers: SystemExit runs the
    # workloads' finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The program's defaults, not the caller's: $REPRO_* knobs (backend,
    # config file, cost profile, ...) would change what is measured.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        calib_start = harness.calibration_ms()
        run = Run(root=ROOT, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), scratch=scratch)
        outcome = WORKLOADS[args.workload](run)
        calib_end = harness.calibration_ms()
    except Exception:  # noqa: BLE001 - report and exit without a result line
        traceback.print_exc()
        return _fail(f"{args.workload} run did not complete", code=1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    outcome.metrics.setdefault("host.calib_ms", (calib_start + calib_end) / 2)
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        value = outcome.metrics.get(name)
        if value is None:
            if not args.trace:
                return _fail(f"{args.workload} measured no {name}", code=1)
            value = 0.0  # this layer is not on the workload's path
        metrics[name] = {"value": float(value), "unit": entry["unit"]}

    tally = outcome.tally
    correct = tally.attempted > 0 and tally.failed == 0 and not outcome.fatal
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(harness.host_line(ROOT, calib_start, calib_end))
    for line in outcome.lines:
        print(line)
    print("answers: " + ", ".join(f"{k}={v}" for k, v in tally.counts.items()))
    for message in outcome.fatal:
        print(f"FAILED: {message}")
    for name, metric in metrics.items():
        print(f"{name:<34} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
