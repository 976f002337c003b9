"""SHA-256 comes from CPython's built-in module, so no command loads OpenSSL,
and its digests are hashlib's: the config hashes in the artifacts and the
kernel's cache file name stay as they were."""

import hashlib
import os
import subprocess
import sys
import textwrap
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest

from radialblowup import _kernel
from radialblowup.cli import config_hash

RUN = """
[model]
dim = 3

[numerics]
n_cells = 64
t_end = 0.2
steepening_threshold = 1e9
output_stride = 5

[initial]
family = polynomial_bump
"""


def _python(code: str, cwd: Path) -> str:
    """The stdout of ``code`` run by this interpreter, with this sys.path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def test_run_sweep_and_check_load_no_openssl(tmp_path):
    (tmp_path / "run.cfg").write_text(RUN)
    (tmp_path / "sweep.cfg").write_text(RUN + "\n[sweep]\ndelta = 0, 1\n")
    code = """
        import sys
        from radialblowup.cli import main

        codes = [
            main(["run", "run.cfg", "--output-dir", "run"]),
            main(["sweep", "sweep.cfg", "--output-dir", "sweep", "--jobs", "2"]),
            main(["check", "run.cfg"]),
        ]
        loaded = ("_hashlib", "ssl", "_ssl", "multiprocessing", "concurrent.futures")
        print(codes, [m for m in loaded if m in sys.modules])
    """
    assert _python(code, tmp_path).splitlines()[-1] == "[0, 0, 0] []"


@pytest.mark.parametrize("text", ["[model]\ndim = 3\n", "[initial]\nfamily = δ-Ω é\n"])
def test_config_hash_is_hashlibs_digest(text):
    assert config_hash(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def test_kernel_cache_key_is_hashlibs_digest():
    # the same name as before the built-in module: no cache is rebuilt
    key = hashlib.sha256(_kernel.SOURCE.read_bytes() + " ".join(_kernel.COMPILE).encode())
    library = Path(_kernel.load().__file__).name
    assert library == f"kernel-{key.hexdigest()[:16]}{EXTENSION_SUFFIXES[0]}"


def test_builds_without_the_builtin_module_fall_back_to_hashlib(tmp_path):
    # None in sys.modules makes an import of that name fail
    code = """
        import sys
        sys.modules["_sha2"] = sys.modules["_sha256"] = None
        from radialblowup import _kernel

        print(_kernel._sha256.__module__, _kernel.sha256_hex("δ".encode()))
    """
    module, digest = _python(code, tmp_path).split()
    assert module == "_hashlib"
    assert digest == hashlib.sha256("δ".encode()).hexdigest()
