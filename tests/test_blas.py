"""The one-BLAS-thread guard: it pins and restores the thread count, nests,
runs unpinned without a known OpenBLAS, and covers training and every CLI
command."""

import pytest

import alrite.blas as blas
import alrite.cli as cli
import alrite.pipeline as pipeline
from alrite.blas import one_blas_thread
from alrite.data import generate_ihdp_like, split
from alrite.pipeline import PipelineHyperparams, train_pipeline


@pytest.fixture
def threads():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test
    and put back afterwards."""
    controls = blas._thread_controls()
    if controls is None:
        pytest.skip("numpy's BLAS exposes no known OpenBLAS thread control")
    get, set_ = controls
    saved = get()
    set_(2)
    if get() != 2:
        set_(saved)
        pytest.skip("OpenBLAS cannot run 2 threads here")
    yield get
    set_(saved)


def test_restores_count_after_normal_exit(threads):
    with one_blas_thread():
        assert threads() == 1
    assert threads() == 2


def test_restores_count_after_exception(threads):
    with pytest.raises(RuntimeError, match="inside"):
        with one_blas_thread():
            assert threads() == 1
            raise RuntimeError("inside")
    assert threads() == 2


def test_nested_use_restores_outer_count(threads):
    with one_blas_thread():
        with one_blas_thread():
            assert threads() == 1
        assert threads() == 1
    assert threads() == 2


def test_runs_unpinned_without_known_symbol(threads, monkeypatch):
    monkeypatch.setattr(blas, "_thread_controls", lambda: None)
    ran = []
    with one_blas_thread():
        ran.append(threads())
    assert ran == [2] and threads() == 2


def test_training_runs_on_one_thread(threads, monkeypatch):
    seen = []
    real = pipeline.mirror_twins

    def recording(*args, **kwargs):
        seen.append(threads())
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "mirror_twins", recording)
    ds, _ = generate_ihdp_like(0, n=80, d=3)
    # alpha > 0: the loss reads the twins, so each epoch searches them
    hp = PipelineHyperparams(alpha=0.5, embed_layers=1, head_layers=1, batch_size=50,
                             epochs=2)
    train_pipeline(ds, split(ds, 0.2, 0.3, 0), "control_driven", hp, seed=0)
    assert seen == [1, 1] and threads() == 2


def test_cli_commands_run_on_one_thread(threads, monkeypatch, tmp_path):
    seen = []

    def recording(cfg, out, workers):
        seen.append(threads())
        raise RuntimeError("stop")

    monkeypatch.setitem(cli.COMMANDS, "report", recording)
    assert cli.main(["report", "--out", str(tmp_path)]) == 2
    assert seen == [1] and threads() == 2
