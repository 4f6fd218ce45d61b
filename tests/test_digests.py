"""Committed digests of the package's outputs, recomputed: the "bit for bit" contract as a test.

digests.json maps each name below to the sha1 of an output's bytes, and
records the numpy and Python versions it was made with.  The integer
outputs (psi_range at every lam <= 8 and sigma_range) are checked under any
versions.  The verify_all reports hold float margins that pass through
np.fft, and the atom readers (values_range, twist, correlation_profile,
spectrum_scan, scale_sums) give float outputs, so their digests are checked
only under the recorded versions and skipped elsewhere.

A change that alters an output on purpose regenerates the manifest, from
the root of a checkout, and names each changed digest in CHANGES.md:

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from ostrowski import (
    correlation_profile,
    numeration,
    parse_alpha_spec,
    psi_range,
    scale_for,
    scale_sums,
    sigma_range,
    spectrum_scan,
    twist,
    values_range,
    verify_all,
)
from ostrowski.alphafun import fn_for

MANIFEST = Path(__file__).with_name("digests.json")
SPECS = ("golden", "silver", "periodic:/1,2", "periodic:/1,2,3,1,1,4", "periodic:/1,1000")
LAM_MAX = 8
TILE = numeration.WALK_TILE
# counts at and across the tile edges; at the largest the levels above lam
# <= 7 of golden pass WALK_TILE // 16 runs, so the run cap stops their peel
COUNTS = (1, 2, TILE - 1, TILE, TILE + 1, 3 * TILE + 12345)
SEEDS = (0, 1)
READER_SPECS = ("golden", "silver", "periodic:/1,2,3,1,1,4", "periodic:/1,1000", "periodic:3/7,1",
                "list:" + ",".join(map(str, range(1, 21))), "periodic:1000/1")
READER_FNS = ("theta:0.5", "theta:0.1234567", "theta:-0.3", "theta:0.25+beta:0.75", "theta:0.3+beta:0.61")
READER_NS = (1, 7, 1000, 40000)
READER_R = 64
FLOAT_NAMES = (*(f"verify_all seed={seed}" for seed in SEEDS),
               *(f"atom readers {spec}" for spec in READER_SPECS))


def kernel_digest(spec_text: str) -> str:
    """sha1 of psi_range at lam = 0..LAM_MAX, then sigma_range, at each count, as little-endian int64."""
    scale = scale_for(parse_alpha_spec(spec_text), max(COUNTS))
    h = hashlib.sha1()
    for count in COUNTS:
        for lam in range(LAM_MAX + 1):
            h.update(psi_range(scale, lam, count).astype("<i8").tobytes())
        h.update(sigma_range(scale, count).astype("<i8").tobytes())
    return h.hexdigest()


def reader_digest(spec_text: str) -> str:
    """sha1 over each fn spec and N of: values_range, the flat atoms of twist(g, 0.37),
    correlation_profile's gamma and route at R = READER_R, spectrum_scan's peak
    and grid, and scale_sums(g, 0.3), on g's table for n < N + READER_R."""
    h = hashlib.sha1()
    for fn_spec in READER_FNS:
        for N in READER_NS:
            g = fn_for(spec_text, fn_spec, N + READER_R)
            profile = correlation_profile(g, READER_R, N)
            scan = spectrum_scan(g, N)
            for part in (values_range(g, N), np.concatenate(twist(g, 0.37).atoms),
                         profile.gamma, profile.route.encode(),
                         repr((scan.beta_peak, scan.peak_value)).encode(), scan.grid,
                         scale_sums(g, 0.3)):
                h.update(part if isinstance(part, bytes) else part.tobytes())
    return h.hexdigest()


def compute(name: str) -> str:
    if name.startswith("verify_all "):
        seed = int(name.rpartition("=")[2])
        return hashlib.sha1(repr(verify_all(seed=seed)).encode()).hexdigest()
    if name.startswith("atom readers "):
        return reader_digest(name.removeprefix("atom readers "))
    return kernel_digest(name.removeprefix("psi_range sigma_range "))


NAMES = (*FLOAT_NAMES, *(f"psi_range sigma_range {spec}" for spec in SPECS))


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


@pytest.mark.parametrize("name", NAMES)
def test_outputs_match_the_committed_digests(name):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if name in FLOAT_NAMES and manifest["versions"] != versions():
        pytest.skip(f"float digests were made under {manifest['versions']}, this is {versions()}")
    assert compute(name) == manifest["digests"][name]


if __name__ == "__main__":
    digests = {name: compute(name) for name in NAMES}
    MANIFEST.write_text(json.dumps({"versions": versions(), "digests": digests}, indent=2) + "\n",
                        encoding="utf-8")
    json.dump(digests, sys.stdout, indent=2)
    print()
