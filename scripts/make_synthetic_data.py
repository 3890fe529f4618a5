#!/usr/bin/env python3
"""Generate synthetic classification datasets as JSONL files.

Example:
    python scripts/make_synthetic_data.py --out-dir data --flavor zipfian \
        --train 1000 --valid 200 --classes 10 --seed 0
"""

import argparse
from pathlib import Path

from spdcl.io import write_dataset
from spdcl.synth import make_zipfian_dataset


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--flavor", choices=["zipfian", "separable"], default="zipfian")
    parser.add_argument("--train", type=int, default=1000)
    parser.add_argument("--valid", type=int, default=200)
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # The separable set is the Zipfian one without shared filler words.
    noise = {"noise_rate": 0.0} if args.flavor == "separable" else {}
    train, valid = make_zipfian_dataset(
        args.train, args.valid, n_classes=args.classes, seed=args.seed, **noise
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(out / f"{args.flavor}_train.jsonl", train)
    write_dataset(out / f"{args.flavor}_valid.jsonl", valid)
    print(f"wrote {len(train)} train / {len(valid)} valid samples to {out}")


if __name__ == "__main__":
    main()
