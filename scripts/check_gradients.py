#!/usr/bin/env python3
"""Verify the hand-written BiLSTM(+attention) gradients numerically.

Builds a tiny double-precision network, compares analytic gradients against
central finite differences on sampled coordinates of every parameter block,
and prints the per-block report. The parameter point is conditioned (O(1)
embeddings, scaled attention) so finite differences at the default h stay
clear of cancellation noise; see the test suite for the same check run as an
assertion.

Usage: python scripts/check_gradients.py [--attention/--no-attention]
       [--h 1e-5] [--seed 11] [--coords 48]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from bullyguard.neural import TrainConfig, init_params
from bullyguard.rng import Rng
from gradcheck import gradient_check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--attention", dest="attention", action="store_true", default=True)
    parser.add_argument("--no-attention", dest="attention", action="store_false")
    parser.add_argument("--h", type=float, default=1e-5)
    parser.add_argument("--tolerance", type=float, default=1e-4)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--coords", type=int, default=48,
                        help="coordinates per block (48 is all of a fused LSTM w)")
    args = parser.parse_args()

    config = TrainConfig(embedding_dim=4, hidden_dim=3, attention_dim=3, batch_size=2)
    params = init_params(10, config, use_attention=args.attention, rng=Rng(args.seed))
    params.blocks["embedding"] *= 20.0
    params.blocks["att.w"] *= 3.0
    params.blocks["att.v"] *= 3.0
    params.blocks["head.w"] *= 3.0
    rng = Rng(args.seed + 1)
    params.blocks["att.b"][:] = [rng.uniform(-0.8, 0.8) for _ in range(config.attention_dim)]

    ids = np.asarray([[2, 3, 4, 5, 0], [6, 7, 8, 0, 0]])
    lens = np.asarray([4, 3])
    labels = np.asarray([0, 1])
    report = gradient_check(
        params, (ids, lens, labels),
        h=args.h, tolerance=args.tolerance, n_per_block=args.coords, seed=3,
    )
    print(report.render_text())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
