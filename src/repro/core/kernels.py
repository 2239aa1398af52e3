"""The ``engine=`` knob and the per-evaluator kernel cache.

Two executors evaluate a rule body:

* ``"interpreted"`` — the per-application re-planned generator
  pipeline (:func:`repro.core.valuations.enumerate_matches`), kept
  byte-for-byte as the differential oracle and the only path for
  ``plan="naive"``;
* ``"batched"`` — the columnar whole-batch executor
  (:mod:`repro.core.batched`), the production path.  Each (rule,
  body[, delta-variant]) plan is lowered once per evaluator and cached
  in a :class:`KernelCache` for every later fixpoint iteration.

``"auto"`` (the default) resolves to ``"batched"`` on indexed plans
and to ``"interpreted"`` on ``plan="naive"``.  The retired engine names
``"compiled"`` and ``"codegen"`` stay accepted for one release: they
resolve to ``"batched"`` with a :class:`DeprecationWarning`.
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from .indexes import JoinStats


class KernelCache:
    """Per-evaluator (= per-stratum) cache of batched kernels.

    Keys are caller-chosen hashables (plan index, delta-variant rank);
    a hit is counted in ``JoinStats.kernel_cache_hits`` — the counter
    the regression gate watches to prove kernels are actually reused
    across fixpoint iterations instead of rebuilt.
    """

    def __init__(self, stats: Optional[JoinStats] = None):
        self._kernels: Dict[Hashable, Any] = {}
        self.stats = stats

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        entry = self._kernels.get(key)
        if entry is None:
            entry = build()
            self._kernels[key] = entry
        elif self.stats is not None:
            self.stats.kernel_cache_hits += 1
        return entry

    def __len__(self) -> int:
        return len(self._kernels)


#: Retired engine names, accepted for one release as aliases of
#: ``"batched"`` (each use warns).
DEPRECATED_ENGINES: Tuple[str, ...] = ("compiled", "codegen")

#: The single source of truth for the ``engine=`` knob — shared by
#: :func:`repro.core.engine.solve` and the ``--engine`` CLI choice so
#: the two can never drift apart.
VALID_ENGINES: Tuple[str, ...] = (
    "auto",
    "interpreted",
    "batched",
) + DEPRECATED_ENGINES


def canonical_engine(engine: str) -> str:
    """Validate an ``engine=`` value and map deprecated aliases.

    Returns ``engine`` unchanged unless it is one of
    :data:`DEPRECATED_ENGINES`, which map to ``"batched"`` with one
    :class:`DeprecationWarning`.  Entry points call this once, so the
    evaluators they build see only the canonical name.
    """
    if engine not in VALID_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; valid choices: "
            + ", ".join(VALID_ENGINES)
        )
    if engine in DEPRECATED_ENGINES:
        warnings.warn(
            f"engine={engine!r} is deprecated and now runs "
            "engine='batched'; pass 'batched' (or 'auto') instead",
            DeprecationWarning,
            stacklevel=3,
        )
        return "batched"
    return engine


def resolve_engine_mode(engine: str, plan: str) -> str:
    """Resolve an ``engine=`` knob to a pipeline mode.

    Returns ``"interpreted"`` (the per-application re-planned
    generator pipeline, the differential oracle) or ``"batched"`` (the
    columnar whole-batch executor of :mod:`repro.core.batched`).
    ``"auto"`` picks ``"batched"`` exactly when the plan is indexed —
    the ``plan="naive"`` seed baseline stays interpreted byte-for-byte;
    an explicit ``"batched"`` (or a deprecated alias of it) rejects
    non-indexed plans outright.
    """
    from .valuations import is_indexed_plan

    engine = canonical_engine(engine)
    if engine == "interpreted":
        return "interpreted"
    if not is_indexed_plan(plan):
        if engine == "batched":
            raise ValueError(
                f"engine={engine!r} requires an indexed plan; "
                f"plan={plan!r} has no batched pipeline"
            )
        return "interpreted"
    return "batched"
