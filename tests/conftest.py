"""Shared fixtures."""

import tracemalloc

import pytest

import alrite.cli
import alrite.propensity
import alrite.selection
import alrite.twin
from alrite.blas import one_blas_thread

# against 300-400 reference rows these budgets give 48- and 96-row blocks
SMALL_BLOCK_BUDGETS = (12_000, 40_000)


@pytest.fixture
def blocked(monkeypatch):
    """`blocked(fn)` returns fn() under the default block budget and a list of
    fn() under each small budget, all on one BLAS thread. It checks that each
    small-budget call split its searches into several row blocks, one of them
    a folded tail (a row count that is not a multiple of the alignment)."""
    kernel = alrite.twin.pairwise_sq_dists

    def run(fn):
        with one_blas_thread():
            whole = fn()
            out = []
            for budget in SMALL_BLOCK_BUDGETS:
                rows = []

                def counting(a, b, *rest):
                    rows.append(len(a))
                    return kernel(a, b, *rest)

                with monkeypatch.context() as mp:
                    mp.setattr(alrite.twin, "BLOCK_ENTRIES", budget)
                    for module in (alrite.twin, alrite.propensity, alrite.selection):
                        mp.setattr(module, "pairwise_sq_dists", counting)
                    out.append(fn())
                assert len(rows) > 2, rows
                assert any(r % alrite.twin.ROW_ALIGN for r in rows), rows
        return whole, out

    return run


@pytest.fixture
def written():
    """`written(out, *commands)` maps each file in `out` that `commands` write,
    by `cli.ARTIFACTS`, to its bytes, keyed by its path relative to `out`. It
    checks that every entry of those commands matches at least one file."""
    def read(out, *commands):
        files = {}
        for command in commands:
            for pattern in alrite.cli.ARTIFACTS[command]:
                paths = sorted(out.glob(pattern))
                assert paths, f"no {pattern} in {out}, which `{command}` writes"
                files.update((p.relative_to(out).as_posix(), p.read_bytes()) for p in paths)
        return files

    return read


@pytest.fixture
def peak_bytes():
    """`peak_bytes(fn, *args, **kwargs)` calls fn(*args, **kwargs) and returns
    the largest number of bytes tracemalloc saw allocated during the call."""
    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
