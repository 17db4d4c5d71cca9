#!/usr/bin/env python3
"""Materialize a small synthetic corpus on disk for exercising the CLI.

Two layouts:

  dir  -- per-class pixmap folders plus manifest.tsv under <root>/train and
          <root>/test (works with ``--dataset dir``)
  csv  -- a single FER-style CSV with Training/PublicTest rows (works with
          ``--dataset fer2013``; forces 48x48 grayscale)

The train and test splits use different noise seeds over the same class
patterns, so a model that learns the train split generalizes to test.
"""

import argparse
from pathlib import Path

from resemotenet.synthetic import (
    make_synthetic_manifest,
    write_fer_csv,
    write_pixmap_dir,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, help="output directory (or .csv path)")
    parser.add_argument("--format", choices=("dir", "csv"), default="dir")
    parser.add_argument("--per-class", type=int, default=8)
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--channels", type=int, choices=(1, 3), default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.format == "csv":
        # the CSV layout is fixed-geometry by definition
        args.size, args.channels = 48, 1

    try:
        splits = {
            split: make_synthetic_manifest(
                per_class=args.per_class, size=args.size, channels=args.channels,
                seed=args.seed + offset, split=split)
            for offset, split in enumerate(("train", "test"))
        }
    except ValueError as err:  # an impossible size: exit 2 before writing
        parser.error(str(err))

    if args.format == "csv":
        path = args.root if args.root.suffix == ".csv" else args.root / "fer2013.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_fer_csv(path, splits)
        print(f"wrote {sum(len(m.samples) for m in splits.values())} rows to {path}")
    else:
        for split, manifest in splits.items():
            write_pixmap_dir(args.root / split, manifest,
                             color=args.channels == 3)
            print(f"wrote {len(manifest.samples)} images to {args.root / split}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
