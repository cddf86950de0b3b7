"""Pluggable engine backends for :func:`repro.core.engine.run_local`.

A *backend* is one way to execute the synchronous rounds.  The repo
ships four.  ``"fast"`` (the default), ``"vectorized"`` and
``"sharded"`` share one round loop, :func:`repro.core.engine.run_rounds`
(guards, bulk skips, trace, observer lifecycle, RunResult), and differ
only in the stepper that executes a round: per-node stepping with
dirty-commit and wake buckets; numpy whole-round kernels over the CSR
adjacency (requires the ``[perf]`` extra; see ``docs/performance.md``);
forked shard workers exchanging boundary messages at round barriers
(see ``docs/sharding.md``).  ``"reference"`` is the kept-simple oracle
loop the equivalence suite trusts.

All backends share one contract: identical signature, identical
:class:`~repro.core.engine.RunResult` (outputs, rounds, messages,
failures, trace) and identical observer event streams for the same run.
The parameterized equivalence relation in :mod:`repro.verify.relations`
pins this down for every registered backend, so a new backend gets the
correctness suite for free the moment it registers here.

Selection precedence (first match wins):

1. an explicit ``run_local(backend="...")`` argument;
2. the innermost ambient :func:`use_backend` scope;
3. the ``REPRO_BACKEND`` environment variable;
4. the default, ``"fast"``.

This module is deliberately dependency-free (no numpy, no engine
import): backends register themselves, and optional backends register a
*loader* that is only invoked when the backend is actually selected —
importing :mod:`repro.core` never pulls in numpy.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .errors import ReproError

#: Environment variable consulted when no explicit or ambient backend
#: is selected (step 3 of the precedence chain).
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The backend used when nothing else selects one.
DEFAULT_BACKEND = "fast"

#: A backend's runner: the exact ``run_local`` signature, returning a
#: ``RunResult``.  Typed loosely to keep this module engine-free.
Runner = Callable[..., Any]


@dataclass(frozen=True)
class Backend:
    """One registered round-engine implementation.

    ``loader`` resolves the actual runner lazily so optional backends
    (vectorized: numpy) cost nothing until selected; it must raise
    :class:`ReproError` with installation guidance when the backend's
    dependencies are missing.

    ``capture_state`` / ``restore_state`` form the optional
    *checkpoint capability* (see :mod:`repro.core.checkpoint`):
    ``capture_state(handle)`` serializes the engine's mutable
    round-boundary state to a picklable dict (carrying a ``"format"``
    key naming the state shape), and ``restore_state(handle, payload)``
    applies such a dict back onto a freshly built engine.  Backends
    without the capability leave both ``None``; selecting them under a
    checkpoint policy fails fast with a
    :class:`~repro.core.checkpoint.CheckpointError`.
    """

    name: str
    description: str
    loader: Callable[[], Runner]
    capture_state: Optional[Callable[[Any], Dict[str, Any]]] = None
    restore_state: Optional[Callable[[Any, Dict[str, Any]], None]] = None

    def load(self) -> Runner:
        """Resolve the runner (may raise :class:`ReproError`)."""
        return self.loader()

    def available(self) -> bool:
        """Whether the backend's dependencies are importable."""
        try:
            self.load()
        except ReproError:
            return False
        return True


#: Registration-ordered backend registry.
_REGISTRY: Dict[str, Backend] = {}

#: Ambient :func:`use_backend` scopes (innermost last).
_AMBIENT: List[str] = []


def register_backend(
    name: str,
    loader: Callable[[], Runner],
    *,
    description: str = "",
    capture_state: Optional[Callable[[Any], Dict[str, Any]]] = None,
    restore_state: Optional[Callable[[Any, Dict[str, Any]], None]] = None,
) -> None:
    """Register (or replace) a backend under ``name``.

    ``loader`` is called on first use, not at registration — register
    optional backends unconditionally and let the loader raise a
    :class:`ReproError` explaining what to install.  Pass both
    ``capture_state`` and ``restore_state`` to advertise the checkpoint
    capability (see :class:`Backend`).
    """
    _REGISTRY[name] = Backend(
        name=name,
        description=description,
        loader=loader,
        capture_state=capture_state,
        restore_state=restore_state,
    )


def backend_names() -> Tuple[str, ...]:
    """All registered backend names, in registration order."""
    return tuple(_REGISTRY)


def available_backend_names() -> Tuple[str, ...]:
    """Registered backends whose dependencies are importable."""
    return tuple(
        name
        for name, backend in _REGISTRY.items()
        if backend.available()
    )


def get_backend(name: str) -> Backend:
    """Look up a backend; unknown names raise with the known set."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none registered)"
        raise ReproError(
            f"unknown engine backend {name!r}; registered backends: "
            f"{known}"
        ) from None


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Route every :func:`~repro.core.engine.run_local` call in scope
    through backend ``name``.

    Multi-phase drivers call ``run_local`` internally and most take no
    ``backend`` argument, so a backend for a whole driver execution is
    attached ambiently::

        with use_backend("vectorized"):
            pettie_su_tree_coloring(tree, seed=1)

    Scopes nest (innermost wins) and the previous selection is restored
    on exit even when the run raises.  Unknown names raise immediately;
    a known-but-unavailable backend (numpy missing) raises at the first
    ``run_local`` call, from its loader, with install guidance.
    """
    get_backend(name)  # fail fast on unknown names
    _AMBIENT.append(name)
    try:
        yield
    finally:
        _AMBIENT.pop()


def current_backend_name() -> str:
    """The backend ``run_local`` would use right now (precedence: ambient
    scope, then :data:`BACKEND_ENV_VAR`, then :data:`DEFAULT_BACKEND`).

    The returned name is not validated here — an unknown name from the
    environment variable surfaces as a :class:`ReproError` (listing the
    registered backends) at the next ``run_local`` call.
    """
    if _AMBIENT:
        return _AMBIENT[-1]
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        return env
    return DEFAULT_BACKEND


def resolve_runner(backend: Optional[str] = None) -> Runner:
    """The runner for ``backend`` (or the currently selected one)."""
    name = backend if backend is not None else current_backend_name()
    return get_backend(name).load()
