#!/usr/bin/env python3
"""Derive the synthetic generator's shortfall-rule constants.

The generator column is GEN_SCALE * max(0, s - GEN_THRESHOLD) where s is
the shortfall latent from ``gridcast.data.synth_latent``. This script
draws s at large n, places the threshold at the 40% quantile (so ~40%
of rows are zero-generation), and solves the scale so the mean output
hits the reference 18.55 kW. The resulting numbers are frozen into
gridcast.data; rerun this after changing any latent-mixing constant.

Exit status: 0 when the frozen constants agree with the derivation,
1 when they have drifted.
"""

import sys

import numpy as np

from gridcast import data as dat
from gridcast.tensor import RngState


def main() -> int:
    target_mean = dat.TABLE_STATS["generator_kw"][0]
    zero_rate = 0.40
    samples = np.concatenate([dat.synth_latent(400_000, RngState(seed))[1]
                              for seed in range(5)])
    threshold = float(np.quantile(samples, zero_rate))
    mean_above = float(np.clip(samples - threshold, 0.0, None).mean())
    scale = target_mean / mean_above
    print(f"derived threshold = {threshold:.8f}   (frozen: {dat._GEN_THRESHOLD})")
    print(f"derived scale     = {scale:.7f}   (frozen: {dat._GEN_SCALE})")

    gen = scale * np.clip(samples - threshold, 0.0, None)
    print(f"check: mean {gen.mean():.4f} kW (target {target_mean}), "
          f"zero rate {(gen == 0).mean():.4f} (target {zero_rate}), "
          f"std {gen.std():.3f} kW")

    drift_t = abs(threshold - dat._GEN_THRESHOLD)
    drift_s = abs(scale - dat._GEN_SCALE)
    if drift_t > 5e-3 or drift_s > 5e-2:
        print("frozen constants drifted; update gridcast.data", file=sys.stderr)
        return 1
    print("frozen constants agree with this derivation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
