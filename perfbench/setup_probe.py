"""
One set-up measurement in a fresh process.

Usage: python3 setup_probe.py SRC_DIR GEOMETRIES_JSON

Times `import tuma` plus building the assets of every (n, ka, ma, m)
geometry in GEOMETRIES_JSON (grid_codebook, hadamard_codebook,
multiplicity_prior) and prints the seconds taken.  The caller pins the
BLAS/OpenMP thread variables in the environment it passes.
"""

import json
import sys
import time


def main():
    src, geometries = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import tuma
    for n, ka, ma, m in geometries:
        tuma.grid_codebook(m)
        tuma.hadamard_codebook(n, m)
        tuma.multiplicity_prior(ka, ma, m)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
