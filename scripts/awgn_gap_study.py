#!/usr/bin/env python3
"""SNR crossings of the three formats at a target rate on peak-limited AWGN.

For each scheme and metric the script bisects for the peak SNR where the
Monte Carlo rate estimate meets the target, to the midpoint of a bracket
under 1e-3 dB wide, then prints the pairwise gaps against cross_qam32.
These crossings are what the format comparison comes down to: the framed
labeling buys its margin at the bit metric, the shaped system
additionally at the symbol metric.

Usage:
    python scripts/awgn_gap_study.py --num-symbols 1000000 --seed 11
"""
import argparse
import sys

from pam6link.rates import METRICS, SCHEMES, snr_at_rate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rate", type=float, default=2.0, help="target bpcu")
    ap.add_argument("--num-symbols", type=int, default=10**6)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--metric", choices=METRICS, default=None,
                    help="restrict to one metric (default: both)")
    args = ap.parse_args(argv)

    metrics = (args.metric,) if args.metric else METRICS
    print("metric,scheme,snr_crossing_db,gap_vs_cross_db")
    for metric in metrics:
        crossings = {}
        for scheme in SCHEMES:
            crossings[scheme] = snr_at_rate(
                scheme, metric, args.rate,
                num_symbols=args.num_symbols, seed=args.seed)
        ref = crossings["cross_qam32"]
        for scheme in SCHEMES:
            gap = ref - crossings[scheme]
            print(f"{metric},{scheme},{crossings[scheme]:.4f},{gap:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
