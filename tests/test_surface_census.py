"""Census of two library surfaces that grow only on purpose.

Every callback on :class:`~repro.obs.RunObserver` is one more method
each engine must call and each observer author must read about; every
keyword option of :func:`~repro.analysis.run_sweep` is one more path
the sweep harness must keep working.  Both sets are pinned here, so
either surface grows back only with an edit to this test.
"""

import inspect

from repro.analysis import run_sweep
from repro.obs import RunObserver


def test_run_observer_has_the_engine_callbacks_and_checkpoint_hooks():
    defined = {name for name in vars(RunObserver) if not name.startswith("__")}
    assert defined == {
        # What every engine calls.
        "on_run_start",
        "on_backend_info",
        "on_round_batch",
        "on_run_fault",
        "on_run_end",
        "on_run_abort",
        # In-run checkpointing.
        "checkpoint_capable",
        "checkpoint_state",
        "restore_checkpoint",
    }


def test_run_sweep_keyword_options():
    params = inspect.signature(run_sweep).parameters.values()
    assert [p.name for p in params if p.default is not p.empty] == [
        "seeds",
        "workers",
        "observer_factory",
        "retries",
        "journal",
        "progress",
        "checkpoint_dir",
        "checkpoint_every",
    ]
