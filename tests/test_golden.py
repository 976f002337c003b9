"""Golden digests: fixed runs' artifacts must not change by a single byte.

The runs are the README bump (delta = 0, K = 0) at 512 cells, which is
confirmed, and at 256 cells with a diagnostics row every 3 steps, which ends
``violated`` because H falls below the envelope before the detection; and
the same bump with repulsion and pressure (delta = +1, K = 0.5, gamma = 2) at
256 cells with a row every step, the one whole-run pin on the pressure and
force path. Their arithmetic uses no pow or exp beyond squares (numpy's
``**1.0`` and ``**2.0`` are exact, and the Poisson sum and sqrt are plain
IEEE operations), so the digests do not depend on the platform's libm. A
change that is meant to alter the numerics must update these digests and
say why.

The pressure digests were recorded again when the dissipation speed
max(|V| + c) of an interface began to take its sound speeds from the two
cells beside it instead of from the limited face densities rho_l and rho_r
(a stage then raises the cells, which the wave speed has raised already,
and not two face rows). The speed is only the Lax-Friedrichs dissipation
bound, so the run changed in the last digits: t_detect moved from
0.11359151273997668 to 0.11359151286214968 and the verdict, termination and
row count stayed. The dust digests do not pass through that code.
"""

import hashlib

from _helpers import read_summary
from radialblowup.cli import parse_config, run_single

GOLDEN_RUN = """
[model]
dim = 3
delta = {delta}
pressure_const = {pressure_const}
gamma = {gamma}
support_radius = 1

[numerics]
n_cells = {n_cells}
cfl = 0.4
t_end = 2.0
steepening_threshold = 20
output_stride = {stride}
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

GOLDEN_256_SHA256 = {
    "summary.txt": "753761a1d369be9445f0da6cc58a9d4ee5cb8e59b90edbf011bff29db1418bcb",
    "series.tsv": "cf1daebc85ea8bc776dbb1268b0f8e26e05ad4604c9bcc6ba1f292f67ec79b19",
    "snapshot-0.5.tsv": "30b9b94439b3d37702902dcccecd58bea0a9efc18af349d84f2144eb056e3a2c",
    "resolved-config.txt": "4124b6fec8bdac0f706cef346b2da2182cac1fde6bf375f4754d177d20d0f811",
}

GOLDEN_PRESSURE_SHA256 = {
    "summary.txt": "c7465eb3243916c76d26bc1ad03c72164e574664f5dab36bedacc2d5b5885302",
    "series.tsv": "e2f3eef739c934e7f0ff5a19f0bf6939828ab0ecf3eba833c1b50c3aa7139173",
    "snapshot-0.5.tsv": "2e1e8d638768e69c30456d47828e9916062c94c97f97d7232688d3f866606be0",
    "resolved-config.txt": "4d98a898c75796042b35d285e90c3779922706903cfda0b54992f896efa6ef9d",
}

DUST = {"delta": 0, "pressure_const": 0, "gamma": 1.4}


def golden_digests(tmp_path, n_cells, stride, expected, model=DUST):
    config = parse_config(GOLDEN_RUN.format(n_cells=n_cells, stride=stride, **model))
    outcome = run_single("golden", config, str(tmp_path))
    run_dir = tmp_path / "golden"
    digests = {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in expected
    }
    return outcome, read_summary(run_dir), digests


def test_bump_512_artifacts_match_golden_digests(tmp_path):
    outcome, summary, digests = golden_digests(tmp_path, 512, 10, GOLDEN_SHA256)
    assert outcome["verdict"] == "confirmed"
    assert summary["termination"] == "steepening_detected"
    assert digests == GOLDEN_SHA256


def test_bump_256_envelope_break_matches_golden_digests(tmp_path):
    # the envelope-break path: detected before the bound, but H fell below
    # the envelope beyond the 256-cell tolerance first
    outcome, summary, digests = golden_digests(tmp_path, 256, 3, GOLDEN_256_SHA256)
    assert outcome["verdict"] == "violated"
    assert summary["termination"] == "steepening_detected"
    assert summary["envelope_ok"] == "false"
    assert digests == GOLDEN_256_SHA256


def test_bump_256_with_pressure_and_repulsion_matches_golden_digests(tmp_path):
    # the numpy ** of the cells (or their reuse), then tendencies, on every
    # stage
    model = {"delta": 1, "pressure_const": 0.5, "gamma": 2}
    outcome, summary, digests = golden_digests(
        tmp_path, 256, 1, GOLDEN_PRESSURE_SHA256, model
    )
    assert outcome["verdict"] == "confirmed"
    assert summary["termination"] == "steepening_detected"
    assert digests == GOLDEN_PRESSURE_SHA256
