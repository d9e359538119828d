"""Record (or check) the expected ``main`` value of every fixed program.

Values come from the λpure reference interpreter, never from the compiler
under test.  Run from the root of a checkout::

    python3 perfbench/record_expected.py          # rewrite expected.json
    python3 perfbench/record_expected.py --check  # compare, exit 1 on a diff
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.dont_write_bytecode = True

from programs import EXPECTED_PATH, load_expected, recorded_programs, reference_values  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="compare against expected.json instead of writing it")
    args = parser.parse_args(argv)
    values = reference_values(recorded_programs())
    if args.check:
        recorded = load_expected()
        diffs = sorted(k for k in values.keys() | recorded.keys()
                       if values.get(k) != recorded.get(k))
        for key in diffs:
            print(f"{key}: reference {values.get(key)!r} != recorded {recorded.get(key)!r}")
        return 1 if diffs else 0
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"source": "lambda-pure reference interpreter (run_reference)",
                   "values": values}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(values)} values in {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
