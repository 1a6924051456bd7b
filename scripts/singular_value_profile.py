#!/usr/bin/env python3
"""Profile the smallest singular value of the dressed channel matrix.

Bound states sit where the profile dips to zero; the CSV (energy,
sigma_min) makes the root structure visible before trusting any
automated search. Defaults reproduce the two-level splitting of a
symmetric double well in one dimension.

    python3 scripts/singular_value_profile.py --beta -2.0 \
        --separation 4.0 --emin -2.0 --out profile.csv
"""

import argparse
import sys

import numpy as np

from spinpoint import ModelSpec, essential_spectrum_bottom, gamma_dressed, gamma_free, preset_delta


def detgamma_profile(model: ModelSpec, pair, energies) -> np.ndarray:
    """Smallest singular value and log|det| of the dense dressed matrix B Gamma(E) + A per energy.

    Energies must lie strictly below the essential spectrum bottom.
    Returns a (len(energies), 2) array of (sigma_min, logabsdet).
    """
    mu = essential_spectrum_bottom(model)
    energies = np.asarray(energies, dtype=float)
    if np.any(energies >= mu):
        raise ValueError(f"profile energies must lie below the continuum threshold {mu}")
    out = np.empty((energies.size, 2))
    for i, e in enumerate(energies):
        dressed = gamma_dressed(pair, gamma_free(model, complex(e)))
        sv = np.linalg.svd(dressed, compute_uv=False)
        _, logdet = np.linalg.slogdet(dressed)
        out[i] = (sv[-1], logdet)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beta", type=float, default=-2.0)
    ap.add_argument("--separation", type=float, default=4.0,
                    help="distance between the two wells (0 = single site)")
    ap.add_argument("--alpha", type=float, default=0.0)
    ap.add_argument("--emin", type=float, default=-2.0)
    ap.add_argument("--n-grid", type=int, default=800)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    if args.separation > 0.0:
        half = args.separation / 2.0
        model = ModelSpec(1, [-half, half], [args.alpha, args.alpha])
    else:
        model = ModelSpec(1, [0.0], [args.alpha])
    pair = preset_delta(model, args.beta)
    mu = essential_spectrum_bottom(model)
    energies = np.linspace(args.emin, mu - 1e-6, args.n_grid)
    profile = detgamma_profile(model, pair, energies)

    lines = ["energy,sigma_min,logabsdet"]
    for e, (smin, logdet) in zip(energies, profile):
        lines.append(f"{float(e)!r},{float(smin)!r},{float(logdet)!r}")
    payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
