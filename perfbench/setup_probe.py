"""Set-up of one workload in a fresh interpreter: import dppkit, build the
workload's symbols, check their ranges and warm up.  Prints ``ready`` when
the first job could start; run.py times it from process start.

    python3 perfbench/setup_probe.py --workload <name>
"""
import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from dppkit.symbol import require_range

    plan = workloads.WORKLOADS[args.workload].build(0)
    for sym in plan.symbols:
        require_range(sym)
    plan.warm_up()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
