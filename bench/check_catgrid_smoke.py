#!/usr/bin/env python3
"""Checks the categorical grid of a bench_micro_scan report.

Usage: check_catgrid_smoke.py <BENCH_scan report>

The scan smoke run labels the categorical grid as well as the headline. This
check fails unless the report holds that grid, every cell's block-scan counts
match the naive executor, every cell but the last stays within the code
budget, and the last cell leaves every column past it, so that the engine
answers it with neither code kernels nor the posting path.
"""

import json
import sys

# scan::kMaxDictCodes (src/scan/block_scan.h).
CODE_BUDGET = 4096


def grid_errors(cells):
    if len(cells) < 2:
        return ["categorical_grid holds %d cells; it needs cells within and "
                "past the code budget" % len(cells)]
    errors = []
    for cell in cells:
        if cell["counts_match"] is not True:
            errors.append("cardinality %d: block-scan counts diverged from "
                          "the naive executor" % cell["cardinality"])
    for cell in cells[:-1]:
        if cell["max_domain_size"] > CODE_BUDGET:
            errors.append("cardinality %d: a column holds %d > %d distinct "
                          "values" % (cell["cardinality"],
                                      cell["max_domain_size"], CODE_BUDGET))
    last = cells[-1]
    if last["min_domain_size"] <= CODE_BUDGET:
        errors.append("cardinality %d: a column holds only %d <= %d distinct "
                      "values" % (last["cardinality"],
                                  last["min_domain_size"], CODE_BUDGET))
    if last["dict_kernel_blocks"] != 0 or last["posting_queries"] != 0:
        errors.append("cardinality %d: past the code budget the engine still "
                      "ran %d code-kernel blocks and %d posting queries" %
                      (last["cardinality"], last["dict_kernel_blocks"],
                       last["posting_queries"]))
    return errors


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: check_catgrid_smoke.py <BENCH_scan report>")
    with open(argv[1]) as f:
        cells = json.load(f)["categorical_grid"]
    errors = grid_errors(cells)
    for error in errors:
        print("FAILED: " + error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
