"""Write one benchmark fixture: a synthetic CSV and its schema.

Usage: python3 bench/fixtures.py ROWS SEED OUT_DIR

The data is `synthetic_tree_dataset(depth=3, label_noise=0.05,
thresholds=31)`: three features and |H| = 93 candidate splits. The same
(ROWS, SEED) always gives the same file. The harness runs this script in a
process of its own, so generating the data never counts toward the peak
memory of the process it measures.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def write_fixture(rows: int, seed: int, out_dir) -> None:
    from dptree import RandomSource
    from dptree.data_io import save_schema, synthetic_tree_dataset, write_csv

    out_dir = Path(out_dir)
    dataset, _, schema = synthetic_tree_dataset(
        rows, RandomSource(seed, ("fixture", rows)), depth=3, label_noise=0.05, thresholds=31
    )
    write_csv(dataset, schema, out_dir / "data.csv")
    save_schema(schema, out_dir / "schema.json")


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    write_fixture(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3])
