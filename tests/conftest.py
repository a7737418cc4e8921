import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from npverify import profiles, solver  # noqa: E402

EXTSOLVER_MANIFEST = (Path(__file__).resolve().parents[1] / "tools"
                      / "extsolver" / "Cargo.toml")


def _cargo() -> str | None:
    """cargo on PATH, else in rustup's default install location."""
    cargo_home = os.environ.get("CARGO_HOME", str(Path.home() / ".cargo"))
    return (shutil.which("cargo")
            or shutil.which("cargo", path=str(Path(cargo_home) / "bin")))


@pytest.fixture(scope="session")
def external_solver():
    """Path of the external DIMACS solver, or None.

    When none is discoverable and cargo is available, builds the bundled
    dependency-free ``tools/extsolver`` first (offline; it lands where
    ``solver.find_external_solver`` looks).  A failed build fails the
    requesting tests with cargo's own error output."""
    binary = solver.find_external_solver()
    cargo = _cargo()
    if binary is None and cargo is not None:
        proc = subprocess.run(
            [cargo, "build", "--release", "--offline", "--manifest-path",
             str(EXTSOLVER_MANIFEST)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            pytest.fail("cargo build of tools/extsolver failed "
                        f"(exit {proc.returncode}):\n{proc.stderr}")
        binary = solver.find_external_solver()
    return binary


@pytest.fixture(scope="session")
def np33():
    return profiles.enumerate_np(3, 3)


@pytest.fixture(scope="session")
def np43():
    return profiles.enumerate_np(4, 3)


@pytest.fixture(scope="session")
def np34():
    return profiles.enumerate_np(3, 4)


@pytest.fixture(scope="session")
def np35():
    return profiles.enumerate_np(3, 5)


@pytest.fixture(scope="session")
def star33(np33):
    return profiles.np_star(np33)


@pytest.fixture(scope="session")
def star43(np43):
    return profiles.np_star(np43)
