"""Compare benchmark result files; see :mod:`stamp` for the rules.

    python3 perfbench/compare.py --base A.json [...] --new B.json [...]
"""

from __future__ import annotations

import argparse
import json
import sys

from stamp import compare


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="result files of the base")
    parser.add_argument("--new", nargs="+", required=True, help="result files of the change")
    args = parser.parse_args(argv)

    def load(paths):
        out = []
        for p in paths:
            with open(p) as fh:
                out.append(json.load(fh))
        return out

    status, report = compare(load(args.base), load(args.new))
    print(report)
    return status


if __name__ == "__main__":
    sys.exit(main())
