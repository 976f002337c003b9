"""Golden digests: a fixed run's artifacts must not change by a single byte.

The run is the README bump at 512 cells (delta = 0, K = 0). Its arithmetic
uses no pow or exp beyond squares, so the digests do not depend on the
platform's libm. A change that is meant to alter the numerics must update
these digests and say why.
"""

import hashlib

from _helpers import read_summary
from radialblowup.cli import parse_config, run_single

GOLDEN_RUN = """
[model]
dim = 3
delta = 0
pressure_const = 0
gamma = 1.4
support_radius = 1

[numerics]
n_cells = 512
cfl = 0.4
t_end = 2.0
steepening_threshold = 20
output_stride = 10
snapshot_times = 0.5

[initial]
family = polynomial_bump
velocity_amplitude = 1
density_amplitude = 1
"""

GOLDEN_SHA256 = {
    "summary.txt": "c465a6db25bdbe204b40ba077a86feed698fa7b923c0bca5e27c462de5c9b586",
    "series.tsv": "5fe3db53844b0b0286656f1aaecc298b731e0c6fc49b513ddfcf9100981f6235",
    "snapshot-0.5.tsv": "9fe5e974f23be4cffed2047c2559f9c76a416d49c9ee146478959cf676edd609",
    "resolved-config.txt": "8bea851e19f54f49e17ed380b0e62a9ef7257569866f44d33ac98e29711a36d3",
}


def test_bump_512_artifacts_match_golden_digests(tmp_path):
    outcome = run_single("golden", parse_config(GOLDEN_RUN), str(tmp_path))
    run_dir = tmp_path / "golden"
    assert outcome["verdict"] == "confirmed"
    assert read_summary(run_dir)["termination"] == "steepening_detected"
    digests = {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256
