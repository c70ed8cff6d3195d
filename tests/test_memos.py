"""The uniform solvers' memos shared across threads and across models.

Each memo (toeplitz block inverses, conv_quad weights, volterra history
moments) must hand every caller the bytes a fresh computation gives:
under threads that switch every microsecond, and when two models march
the same kernel back to back.  The 120 table cells are pinned bit for
bit by the record tests/table_cells.txt, with four uniform tables run at
once on four threads.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from msdfrac import (
    TABLE_IDS,
    RelaxationProblem,
    SeparableField,
    TimeProfile,
    assemble_fem,
    build_cq,
    build_mesh,
    conv_quad,
    msd_subdiffusion_data,
    reproduce_table,
    solve_relaxation,
    solve_subdiffusion,
    toeplitz,
    volterra,
)


def _clear_memos():
    toeplitz._inverse_of.cache_clear()
    conv_quad._OMEGA.clear()
    volterra._PSI.clear()


def _march(shift):
    kern = np.linspace(1.0, 0.1, 12) ** 2  # a 12-step scalar kernel
    x = np.cos(np.arange(12.0))
    return toeplitz.march(kern, x, shift)


def _omega(alpha):
    return build_cq(alpha, 64)


def _psi(alpha):
    return volterra._history_blocks(alpha, (2.0 / 3.0, 1.0), 64)


@pytest.mark.parametrize(
    "work, args",
    [
        (_march, [0.5 + 0.01 * k for k in range(400)]),  # a new system every call
        (_omega, [0.25, 0.75] * 200),
        (_psi, [0.25, 0.75] * 100),
    ],
    ids=["toeplitz.march", "build_cq", "_history_blocks"],
)
def test_threads_share_each_memo(work, args):
    # four threads on one memo, switching every microsecond: no thread
    # raises, and each result is the single-thread bytes
    want = {}
    for arg in dict.fromkeys(args):
        _clear_memos()
        want[arg] = work(arg).tobytes()
    _clear_memos()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda arg: work(arg).tobytes(), args))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[arg] for arg in args]


class _EmptiedAfterLookup(dict):
    """A memo that another thread empties right after each lookup."""

    def get(self, key, default=None):
        value = super().get(key, default)
        self.clear()
        return value


@pytest.mark.parametrize("module, name, work", [(conv_quad, "_OMEGA", _omega), (volterra, "_PSI", _psi)])
def test_memo_emptied_after_its_lookup_returns_what_it_found(monkeypatch, module, name, work):
    # a hit returns the table its one lookup found, with no second read of
    # the memo that a concurrent miss could have emptied in between
    _clear_memos()
    want = work(0.25).tobytes()
    monkeypatch.setattr(module, name, _EmptiedAfterLookup(getattr(module, name)))
    assert work(0.25).tobytes() == want


def test_relaxation_then_subdiffusion_equal_fresh_solves():
    # table 1's operator, then table 4's data (modes 1 and 2 on (0, 2 pi)),
    # at one alpha and M: both march the uniform L1 kernel, with different
    # shifts, so a block-inverse memo that ignored the shift would hand the
    # second solve the first one's inverse
    alpha, M = 0.25, 300
    mesh = build_mesh(1.0, M)
    prob = RelaxationProblem(alpha=alpha, lam=1.0, T=1.0, f=1.0)
    domain = (0.0, 2.0 * math.pi)
    f = SeparableField(domain, ((2, TimeProfile.constant(1.0)),))
    u0 = SeparableField(domain, ((1, TimeProfile.constant(1.0)),))
    data, fem = msd_subdiffusion_data(f, u0, 0, alpha), assemble_fem(*domain, 32)
    solves = (
        lambda: solve_relaxation(prob, mesh).U,
        lambda: solve_subdiffusion(alpha, 0, data, mesh, fem).U,
    )
    _clear_memos()
    in_turn = [solve().tobytes() for solve in solves]
    for solve, got in zip(solves, in_turn):
        _clear_memos()
        assert got == solve().tobytes()


def _cells(table_id):
    """One line per cell: table, block, alpha, M and the error in float.hex."""
    return [
        f"{table_id} {side} {rep.params['alpha']} {row.M} {row.error.hex()}"
        for side, block in zip(("left", "right"), reproduce_table(table_id))
        for rep in block
        for row in rep.rows
    ]


@pytest.mark.filterwarnings("ignore:grading r =")
def test_tables_match_the_cell_record():
    """Every cell of tables 1-6 equals its record, run in turn and then
    tables 1, 3, 4 and 6 at once on four threads from empty memos.

    A change that moves a cell on purpose rewrites the record with

        PYTHONPATH=src python -W ignore -c "from tests.test_memos import TABLE_IDS, _cells; print(*(c for n in TABLE_IDS for c in _cells(n)), sep='\\n')" > tests/table_cells.txt

    and says in CHANGES.md which cells moved and why.
    """
    record = (Path(__file__).parent / "table_cells.txt").read_text().splitlines()
    assert [cell for n in TABLE_IDS for cell in _cells(n)] == record
    uniform = (1, 3, 4, 6)
    _clear_memos()
    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(_cells, uniform))
    assert got == [[cell for cell in record if cell.split()[0] == str(n)] for n in uniform]
