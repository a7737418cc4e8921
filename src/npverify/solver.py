"""Solver sessions over the CDCL core and the external differential check.

A `Session` holds one `satcore.Solver` for one formula and answers a
sequence of questions about it, each a set of assumed literals; learned
clauses carry over, and `add_clause` strengthens the formula between calls.
The lemma sweeps answer all their instances on one session this way, and
`solve_formula` is a one-shot session.  Each result's statistics cover its
own call only.

A formula's clauses are a base store with the scenario clauses layered on
top (`cnf.ClauseStore`).  The first session on a base builds its
read-only `satcore.BaseIndex`, written straight from the walk of the
encoding, and keeps it on the base store itself, so it lives exactly as
long as the store; every session on that base opens its core on the
shared index, copy-on-write, and loads only the clauses above the base,
the layer's own tuple of clauses.

For differential acceptance an independent external solver can re-check
a question exported as one DIMACS file: the formula whose last clauses
are the question's assumptions, one unit each.  Any binary speaking the
conventional interface (``solver FILE.cnf`` printing ``s SATISFIABLE``/
``s UNSATISFIABLE`` and ``v``-lines) works; ``tools/extsolver`` in this
repository is one: a plain DPLL solver that shares no code with the CDCL
core and needs only a Rust toolchain (``cargo build --release
--offline``, no network).  Discovery order: ``NPVERIFY_EXT_SOLVER``, an
``extsolver`` on PATH, then the in-repo build location; a set
``NPVERIFY_EXT_SOLVER`` that names no file is an error, never skipped
over.  A SAT model from the external solver is checked against every
clause before it is accepted.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import cnf, satcore
from .errors import ContractError, ExternalSolverError, TextFormatError

# Read only by perfbench (run metadata and tracer); npverify never uses it.
_satcore = None
PURE = "pure"
COMPILED = "compiled"


def default_backend() -> str:
    return COMPILED if _satcore is not None else PURE


@dataclass(frozen=True)
class SolveResult:
    status: bool
    model: cnf.Model | None
    stats: dict[str, int]


class Session:
    """One solver core on the base index of `formula`, solved
    repeatedly."""

    def __init__(self, formula: cnf.CnfFormula, seed: int | None = None):
        self.formula = formula
        num_vars = formula.num_vars
        store = formula.clauses
        if store.base is None:
            base, top = store, ()
        else:
            base, top = store.base, store.own
        if base.index is None:
            base.index = satcore.BaseIndex(num_vars, base)
        # The core class is looked up at call time: tracing rebinds it.
        self._core = satcore.Solver(num_vars, top, seed=seed,
                                    base=base.index)

    def add_clause(self, clause) -> None:
        """Strengthen the formula for every later call."""
        self._core.add_clause(clause)

    def solve(self, assumptions=()) -> SolveResult:
        """Decide the formula with the literals `assumptions` held true."""
        self._core.assume(assumptions)
        status = self._core.solve()
        return SolveResult(status=status,
                           model=self._core.model() if status else None,
                           stats=self._core.stats())


def solve_formula(formula: cnf.CnfFormula, seed: int | None = None) -> SolveResult:
    return Session(formula, seed=seed).solve()


# -- external solver -------------------------------------------------------

_REPO_BUILD = Path(__file__).resolve().parents[2] / "tools" / "extsolver" \
    / "target" / "release" / "extsolver"
EXTERNAL_TIMEOUT = 600.0  # seconds per external run


def find_external_solver() -> str | None:
    env = os.environ.get("NPVERIFY_EXT_SOLVER")
    if env:
        if not Path(env).is_file():
            raise ExternalSolverError(
                f"NPVERIFY_EXT_SOLVER={env!r} names no file")
        return env
    on_path = shutil.which("extsolver")
    if on_path:
        return on_path
    if _REPO_BUILD.exists():
        return str(_REPO_BUILD)
    return None


def solve_external(formula: cnf.CnfFormula, binary: str) -> bool:
    """The verdict of an external DIMACS solver on `formula`: True for
    SAT, False for UNSAT.

    Raises ExternalSolverError when the binary cannot be started or runs
    past `EXTERNAL_TIMEOUT` seconds, TextFormatError when the output
    carries no verdict or no complete model, and ContractError when a
    claimed model falsifies a clause."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "formula.cnf")
        with open(path, "w") as fh:
            cnf.export_dimacs(formula, fh)
        try:
            proc = subprocess.run([binary, path], capture_output=True,
                                  text=True, timeout=EXTERNAL_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise ExternalSolverError(
                f"external solver {binary} gave no verdict within "
                f"{EXTERNAL_TIMEOUT:g} s") from None
        except OSError as exc:
            raise ExternalSolverError(
                f"external solver {binary} could not be started: "
                f"{exc.strerror or exc}") from None
    out = proc.stdout
    if "s UNSATISFIABLE" in out:
        return False
    if "s SATISFIABLE" in out:
        if not cnf.satisfies(cnf.import_model(out, formula), formula):
            raise ContractError(
                f"external solver {binary} reported SAT with a model that "
                "falsifies the formula")
        return True
    raise TextFormatError(
        f"external solver produced no verdict (exit {proc.returncode}): "
        f"{out[:200]!r} {proc.stderr[:200]!r}")
