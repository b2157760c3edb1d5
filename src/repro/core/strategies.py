"""Strategy registry and the common options base of the search runtime.

The registry maps stable strategy names -- ``"bbc"``, ``"obc-cf"``,
``"obc-ee"``, ``"sa"``, ``"ga"`` -- to :class:`StrategySpec` records, so
the CLI (``python -m repro optimise --algorithm <name>``), the
benchmarks, the Fig. 9 campaign and the campaign layer
(:mod:`repro.core.campaign`) all dispatch by name instead of hard-wired
imports.  Third-party strategies plug in through
:func:`register_strategy` and immediately work everywhere a name is
accepted.

Built-in specs are resolved lazily (module path + attribute, like the
package's PEP 562 exports) so this module never imports the strategy
modules at import time -- they import *it* for the
:class:`StrategyOptions` base.

The one-call entry point is :func:`optimise`::

    from repro.core.strategies import optimise
    result = optimise(system, "obc-cf")
    result = optimise(system, "sa", SAOptions(iterations=3000, seed=7))
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from importlib import import_module
from typing import Callable, Dict, Optional, Tuple, Type

from repro.core.result import OptimisationResult
from repro.core.search import BusOptimisationOptions
from repro.errors import ConfigurationError, OptimisationError
from repro.model.system import System


def valid_limit(value, integral: bool = False) -> bool:
    """Whether *value* is ``None`` or a non-bool real (an int when
    *integral*) >= 0 -- NaN fails the comparison."""
    if value is None:
        return True
    kind = numbers.Integral if integral else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True)
class StrategyOptions:
    """Common base of every strategy's option record.

    Carries the evaluator-level knobs (``bus``) and the run budgets the
    :class:`~repro.core.runtime.SearchDriver` enforces at batch
    boundaries.  Strategy-specific knobs live in subclasses
    (:class:`~repro.core.sa.SAOptions`,
    :class:`~repro.core.ga.GAOptions`); strategies without extra knobs
    (BBC, OBC) take this base directly.
    """

    #: Evaluator / analysis knobs shared by all strategies; ``None``
    #: means the :class:`~repro.core.search.BusOptimisationOptions`
    #: defaults.
    bus: Optional[BusOptimisationOptions] = None
    #: Wall-clock budget of one driver run in seconds, enforced at
    #: batch boundaries by the driver alone (``None`` = unbounded);
    #: composite runners that merge several driver runs (SA's restart
    #: chains) apply the budgets *per run* and propagate
    #: ``stop_reason`` -- see :class:`~repro.core.sa.SAOptions`.
    max_seconds: Optional[float] = None
    #: Exact-analysis budget per driver run, enforced at batch
    #: boundaries -- the last batch may overshoot by its own size
    #: (``None`` = unbounded).
    max_evaluations: Optional[int] = None

    def __post_init__(self):
        limits = (("max_seconds", False), ("max_evaluations", True))
        for name, integral in limits:
            value = getattr(self, name)
            if not valid_limit(value, integral):
                kind = "an int" if integral else "a number"
                raise ConfigurationError(
                    f"{name}={value!r} must be None or {kind} >= 0"
                )

    def bus_options(self) -> BusOptimisationOptions:
        """The effective evaluator options (defaults when unset)."""
        return self.bus if self.bus is not None else BusOptimisationOptions()

    def with_bus(self, bus: Optional[BusOptimisationOptions]):
        """A copy with the evaluator options replaced (when given)."""
        return self if bus is None else replace(self, bus=bus)


@dataclass(frozen=True)
class StrategySpec:
    """One registry entry.

    ``runner(system, options)`` executes the strategy and returns the
    :class:`~repro.core.result.OptimisationResult`; the default runners
    build a strategy instance and hand it to
    :class:`~repro.core.runtime.SearchDriver`, but a spec may supply
    composite behaviour (SA's restart chains merge several driver runs).
    """

    name: str
    summary: str
    options_type: Type[StrategyOptions]
    runner: Callable[[System, StrategyOptions], OptimisationResult]


#: Built-in strategies, resolved lazily: name -> (module, spec attribute).
_BUILTIN: Dict[str, Tuple[str, str]] = {
    "bbc": ("repro.core.bbc", "STRATEGY_SPEC"),
    "obc-cf": ("repro.core.obc", "STRATEGY_SPEC_CF"),
    "obc-ee": ("repro.core.obc", "STRATEGY_SPEC_EE"),
    "sa": ("repro.core.sa", "STRATEGY_SPEC"),
    "ga": ("repro.core.ga", "STRATEGY_SPEC"),
}

_REGISTERED: Dict[str, StrategySpec] = {}


def register_strategy(spec: StrategySpec) -> None:
    """Register (or override) a strategy under ``spec.name``."""
    _REGISTERED[spec.name] = spec


def available_strategies() -> Tuple[str, ...]:
    """All dispatchable strategy names, sorted."""
    return tuple(sorted(set(_BUILTIN) | set(_REGISTERED)))


def get_strategy(name: str) -> StrategySpec:
    """Resolve a strategy name to its spec; unknown names raise."""
    spec = _REGISTERED.get(name)
    if spec is not None:
        return spec
    entry = _BUILTIN.get(name)
    if entry is None:
        raise OptimisationError(
            f"unknown strategy {name!r}; choose from {available_strategies()}"
        )
    module, attribute = entry
    return getattr(import_module(module), attribute)


def optimise(
    system: System,
    strategy: str = "obc-cf",
    options: Optional[StrategyOptions] = None,
) -> OptimisationResult:
    """Run a registered strategy by name through the search runtime.

    ``options`` must be an instance of the strategy's option type (its
    spec's ``options_type``; ``None`` uses the defaults) -- passing,
    say, :class:`~repro.core.ga.GAOptions` to ``"sa"`` is rejected
    rather than silently ignored.
    """
    spec = get_strategy(strategy)
    if options is None:
        options = spec.options_type()
    if not isinstance(options, spec.options_type):
        raise OptimisationError(
            f"strategy {strategy!r} expects {spec.options_type.__name__} "
            f"options, got {type(options).__name__}"
        )
    return spec.runner(system, options)
