"""Typed registry of the coloring heuristics, with timing.

The experiment drivers (Section VI suites, the batch engine, STKDE
integration) run every algorithm through :func:`color_with`, which times the
call and stamps the resulting :class:`~repro.core.coloring.Coloring` with its
label and elapsed seconds — mirroring how the paper reports quality and
runtime together.

Each heuristic is described by an :class:`AlgorithmSpec` (callable plus
capabilities: geometry requirement, supported stencil dimensions, paper-vs-
extension provenance) held in the process-wide :data:`REGISTRY`.  The legacy
``ALGORITHMS`` / ``EXTENDED_ALGORITHMS`` dicts remain available as live
mapping views over the registry, so existing callers keep working unchanged.
"""

from __future__ import annotations

import difflib
import time
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.context import ExecutionContext

from repro.core.algorithms.bipartite_decomposition import (
    bipartite_decomposition,
    bipartite_decomposition_post,
)
from repro.core.algorithms.clique_first import (
    greedy_largest_clique_first,
    smart_greedy_largest_clique_first,
)
from repro.core.algorithms.greedy import (
    greedy_largest_first,
    greedy_line_by_line,
    greedy_zorder,
)
from repro.core.coloring import Coloring
from repro.core.problem import IVCInstance

AlgorithmFn = Callable[[IVCInstance], Coloring]


class UnknownAlgorithmError(KeyError):
    """An algorithm name not present in the registry.

    Subclasses :class:`KeyError` so pre-existing ``except KeyError`` handlers
    keep working.  Carries the offending :attr:`name`, the :attr:`known`
    names, and a closest-match :attr:`suggestion` (or ``None``).
    """

    def __init__(self, name: str, known: Iterable[str]) -> None:
        self.name = name
        self.known = sorted(known)
        matches = difflib.get_close_matches(name, self.known, n=1, cutoff=0.5)
        self.suggestion: str | None = matches[0] if matches else None
        hint = f" — did you mean {self.suggestion!r}?" if self.suggestion else ""
        super().__init__(
            f"unknown algorithm {name!r}{hint} (choose from {self.known})"
        )

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument; keep the message readable.
        return self.args[0]


@dataclass(frozen=True)
class AlgorithmSpec:
    """Capabilities and provenance of one registered heuristic.

    Attributes
    ----------
    name:
        The registry key (the paper's acronym for the seven Section V
        heuristics).
    fn:
        ``IVCInstance -> Coloring``, untimed; run it through
        :func:`color_with` to get timing and labeling.
    needs_geometry:
        Whether the heuristic requires a stencil geometry
        (``instance.geometry is not None``) or degrades gracefully to
        arbitrary conflict graphs.
    supported_dims:
        Stencil dimensionalities the heuristic handles (subset of ``(2, 3)``).
    is_extension:
        ``False`` for the paper's seven, ``True`` for this repo's extensions.
    description:
        One-line summary shown by ``stencil-ivc algorithms``.
    fast_fn:
        Optional kernel binding (see :mod:`repro.kernels.colorings`), run
        instead of ``fn`` whenever :meth:`runs_kernel` holds.  Must produce
        starts identical to ``fn`` — the differential test suite enforces
        this.  It only picks which binding runs: a spec without one still
        reaches kernels through the primitives underneath ``fn``.
    kernel_from:
        Whether the spec has kernels, and its auto-mode crossover in
        vertices: from this instance size up the kernels run (``fast_fn``,
        or the kernels of the primitives underneath ``fn``), below it the
        reference loops do.  ``None`` (the default) means the spec reaches
        no kernel, so it always runs the reference loops; ``0`` means the
        kernels always run.  The default registry's values are the measured
        crossovers of ``BENCH_crossover.json``.
    """

    name: str
    fn: AlgorithmFn
    needs_geometry: bool = True
    supported_dims: tuple[int, ...] = (2, 3)
    is_extension: bool = False
    description: str = ""
    fast_fn: Optional[AlgorithmFn] = None
    kernel_from: Optional[int] = None

    def __post_init__(self) -> None:
        if self.fast_fn is not None and self.kernel_from is None:
            raise ValueError(
                f"algorithm {self.name!r} has a fast_fn but no kernel_from"
            )

    def supports(self, instance: IVCInstance) -> bool:
        """Whether this heuristic can run on ``instance``."""
        if instance.geometry is None:
            return not self.needs_geometry
        if instance.is_2d:
            return 2 in self.supported_dims
        if instance.is_3d:
            return 3 in self.supported_dims
        return not self.needs_geometry  # pragma: no cover - unknown geometry

    def wants_fast(
        self,
        instance: IVCInstance,
        fast: Optional[bool] = None,
        context: Optional["ExecutionContext"] = None,
    ) -> bool:
        """The fast-path decision for one call: an explicit ``fast``, else an
        enclosing ``fast_paths()`` block, else the config mode, where auto
        means ``instance.num_vertices >= kernel_from`` (never, for a spec
        without kernels).

        This is the only place the auto-mode size rule is applied;
        :func:`color_with` scopes the result over the whole call.
        """
        from repro.runtime.fastpath import resolve_fast_for

        decided = resolve_fast_for(fast, context)
        if decided is None:
            return (
                self.kernel_from is not None
                and instance.num_vertices >= self.kernel_from
            )
        return decided

    def runs_kernel(
        self,
        instance: IVCInstance,
        fast: Optional[bool] = None,
        context: Optional["ExecutionContext"] = None,
    ) -> bool:
        """Whether a call runs kernels: :attr:`fast_fn` if the spec has one,
        else ``fn`` with its primitives on their kernels.

        :meth:`wants_fast` alone is only a request: specs without kernels
        (``kernel_from is None``) and instances without a stencil geometry
        run the reference loops regardless.
        """
        return (
            self.kernel_from is not None
            and instance.geometry is not None
            and self.wants_fast(instance, fast, context)
        )


class Registry:
    """Ordered collection of :class:`AlgorithmSpec`, keyed by name.

    Iteration order is registration order, which for the default
    :data:`REGISTRY` is the paper's presentation order followed by the
    extensions.
    """

    def __init__(self) -> None:
        self._specs: dict[str, AlgorithmSpec] = {}

    # ------------------------------------------------------------- mutation
    def register(self, spec: AlgorithmSpec, *, replace: bool = False) -> AlgorithmSpec:
        """Add a spec; refuse silent overwrites unless ``replace=True``."""
        if not replace and spec.name in self._specs:
            raise ValueError(f"algorithm {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        return spec

    def unregister(self, name: str) -> AlgorithmSpec:
        """Remove and return a spec (raises :class:`UnknownAlgorithmError`)."""
        spec = self.get(name)
        del self._specs[name]
        return spec

    # -------------------------------------------------------------- lookup
    def get(self, name: str) -> AlgorithmSpec:
        """The spec registered under ``name``.

        Raises
        ------
        UnknownAlgorithmError
            If no such algorithm exists; the error carries a closest-match
            suggestion computed with :func:`difflib.get_close_matches`.
        """
        try:
            return self._specs[name]
        except KeyError:
            raise UnknownAlgorithmError(name, self._specs) from None

    def select(
        self, instance: IVCInstance, *, include_extensions: bool = False
    ) -> list[str]:
        """Names of the algorithms applicable to ``instance``.

        Capability filtering via :meth:`AlgorithmSpec.supports`; extensions
        are excluded by default so the result matches the paper's seven on
        stencil instances.
        """
        return [
            spec.name
            for spec in self._specs.values()
            if (include_extensions or not spec.is_extension) and spec.supports(instance)
        ]

    def names(self, *, include_extensions: bool = True) -> list[str]:
        """All registered names, optionally restricted to the paper set."""
        return [
            s.name
            for s in self._specs.values()
            if include_extensions or not s.is_extension
        ]

    def specs(self, *, include_extensions: bool = True) -> list[AlgorithmSpec]:
        """All registered specs, in registration order."""
        return [
            s
            for s in self._specs.values()
            if include_extensions or not s.is_extension
        ]

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)


class _RegistryView(Mapping):
    """Live ``{name: fn}`` mapping over a predicate-filtered registry slice.

    Backs the legacy ``ALGORITHMS`` / ``EXTENDED_ALGORITHMS`` module globals:
    algorithms registered (or unregistered) later show up immediately.
    """

    def __init__(
        self, registry: Registry, predicate: Callable[[AlgorithmSpec], bool]
    ) -> None:
        self._registry = registry
        self._predicate = predicate

    def __getitem__(self, name: str) -> AlgorithmFn:
        spec = self._registry._specs.get(name)
        if spec is None or not self._predicate(spec):
            raise UnknownAlgorithmError(name, iter(self))
        return spec.fn

    def __iter__(self) -> Iterator[str]:
        return (
            s.name for s in self._registry._specs.values() if self._predicate(s)
        )

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{{{', '.join(f'{n!r}: ...' for n in self)}}}"


# --------------------------------------------------------------- extensions
def _greedy_smallest_last(instance: IVCInstance) -> Coloring:
    from repro.core.greedy_engine import greedy_color
    from repro.core.orderings import smallest_last_order

    return greedy_color(instance, smallest_last_order(instance), algorithm="GSL")


def _glf_post(instance: IVCInstance) -> Coloring:
    from repro.core.algorithms.greedy import greedy_largest_first
    from repro.core.algorithms.post_opt import post_optimize

    return post_optimize(greedy_largest_first(instance), suffix="+P").with_algorithm("GLF+P")


def _bd_iterated(instance: IVCInstance) -> Coloring:
    from repro.core.algorithms.bipartite_decomposition import bipartite_decomposition
    from repro.core.algorithms.post_opt import iterated_post_optimize

    return iterated_post_optimize(bipartite_decomposition(instance)).with_algorithm("BD+IP")


def _sgk_weight_sorted(instance: IVCInstance) -> Coloring:
    from repro.core.algorithms.clique_first import smart_greedy_weight_sorted

    return smart_greedy_weight_sorted(instance)


def _glf_local_search(instance: IVCInstance) -> Coloring:
    from repro.core.algorithms.greedy import greedy_largest_first
    from repro.core.algorithms.local_search import local_search

    return local_search(greedy_largest_first(instance), max_rounds=10).with_algorithm(
        "GLF+LS"
    )


def _bd_best_axis(instance: IVCInstance) -> Coloring:
    from repro.core.algorithms.bipartite_decomposition import (
        bipartite_decomposition_best_axis,
    )

    return bipartite_decomposition_best_axis(instance)


def _lazy_fast(attr: str) -> AlgorithmFn:
    """A fast-path binding resolved from :mod:`repro.kernels.colorings` at
    call time.

    Keeps ``core`` free of module-level imports of the (higher-layer)
    kernels package — the layering lint enforces that.
    """

    def call(instance: IVCInstance) -> Coloring:
        from repro.kernels import colorings

        return getattr(colorings, attr)(instance)

    call.__name__ = attr
    call.__qualname__ = attr
    return call


#: The process-wide default registry: the paper's seven heuristics in
#: presentation order, then this repo's extensions (the Matula–Beck
#: smallest-last order GSL, post-optimized GLF, iterated fixed-point
#: post-optimization of BD, SGK's weight-sorted shortcut, best-axis BD, and
#: local search on GLF).
REGISTRY = Registry()

for _spec in (
    AlgorithmSpec(
        "GLL", greedy_line_by_line, needs_geometry=False,
        description="greedy, line-by-line (lexicographic) order",
        fast_fn=_lazy_fast("gll_fast"),
        kernel_from=8,
    ),
    AlgorithmSpec(
        "GZO", greedy_zorder,
        description="greedy, Morton Z-order traversal",
        fast_fn=_lazy_fast("gzo_fast"),
        kernel_from=8,
    ),
    AlgorithmSpec(
        "GLF", greedy_largest_first, needs_geometry=False,
        description="greedy, heaviest-vertex-first order",
        fast_fn=_lazy_fast("glf_fast"),
        kernel_from=8,
    ),
    AlgorithmSpec(
        "GKF", greedy_largest_clique_first,
        description="greedy, heaviest-clique-block-first order",
    ),
    AlgorithmSpec(
        "SGK", smart_greedy_largest_clique_first,
        description="GKF with weight-sorted stacking inside each clique",
    ),
    AlgorithmSpec(
        "BD", bipartite_decomposition,
        description="bipartite decomposition (2-approx 2D / 4-approx 3D)",
        fast_fn=_lazy_fast("bd_fast"),
        kernel_from=8,
    ),
    AlgorithmSpec(
        "BDP", bipartite_decomposition_post,
        description="BD followed by the recoloring post-optimization sweep",
        fast_fn=_lazy_fast("bdp_fast"),
        kernel_from=8,
    ),
    AlgorithmSpec(
        "GSL", _greedy_smallest_last, needs_geometry=False, is_extension=True,
        description="greedy, Matula–Beck smallest-last order",
        fast_fn=_lazy_fast("gsl_fast"),
        kernel_from=8,
    ),
    AlgorithmSpec(
        "GLF+P", _glf_post, is_extension=True,
        description="GLF followed by the BDP post-optimization sweep",
        kernel_from=16,
    ),
    AlgorithmSpec(
        "BD+IP", _bd_iterated, is_extension=True,
        description="BD with post-optimization iterated to a fixed point",
        kernel_from=8,
    ),
    AlgorithmSpec(
        "SGK-ws", _sgk_weight_sorted, is_extension=True,
        description="SGK's weight-sorted stacking applied to every block",
    ),
    AlgorithmSpec(
        "BD-ax", _bd_best_axis, is_extension=True,
        description="BD across all decomposition axes, keeping the best",
        kernel_from=8,
    ),
    AlgorithmSpec(
        "GLF+LS", _glf_local_search, needs_geometry=False, is_extension=True,
        description="GLF improved by iterated-greedy local search",
        kernel_from=8,
    ),
):
    REGISTRY.register(_spec)


#: All heuristics evaluated in Section VI, keyed by the paper's acronyms
#: (live view over :data:`REGISTRY`).
ALGORITHMS: Mapping[str, AlgorithmFn] = _RegistryView(
    REGISTRY, lambda s: not s.is_extension
)

#: Paper heuristics plus this repo's extensions (live view over
#: :data:`REGISTRY`).
EXTENDED_ALGORITHMS: Mapping[str, AlgorithmFn] = _RegistryView(
    REGISTRY, lambda s: True
)


def available_algorithms(
    instance: IVCInstance, *, include_extensions: bool = False
) -> list[str]:
    """Algorithm names applicable to this instance.

    Pure capability filtering over the registry: a heuristic qualifies when
    its :class:`AlgorithmSpec` supports the instance's geometry (or lack
    thereof) and dimensionality.
    """
    return REGISTRY.select(instance, include_extensions=include_extensions)


def color_with(
    instance: IVCInstance,
    name: str,
    *,
    fast: Optional[bool] = None,
    context: Optional["ExecutionContext"] = None,
) -> Coloring:
    """Run the named heuristic, timing it.

    Accepts both the paper's seven algorithms and the extension set.
    Returns the coloring stamped with ``algorithm=name`` and ``elapsed`` in
    seconds (``time.perf_counter``).

    Parameters
    ----------
    fast:
        Use the vectorized kernels when the spec has them and the instance
        has a stencil geometry (automatic fallback to the reference
        implementation otherwise, see :meth:`AlgorithmSpec.runs_kernel`).
        ``None`` (default) follows an enclosing ``fast_paths()`` block, else
        the context's :class:`~repro.runtime.config.RuntimeConfig`
        fast-path mode, whose auto mode runs the kernels from the spec's
        measured ``kernel_from`` vertex count up
        (:meth:`AlgorithmSpec.wants_fast`).
        The resolved value is scoped over the whole call, so every
        primitive the algorithm touches follows it without a second size
        check.
    context:
        The :class:`~repro.runtime.context.ExecutionContext` governing this
        call (fast-path config, substrate caches, metrics).  ``None`` uses
        the ambient context; an explicit one is made current for the
        duration of the call.

    Raises
    ------
    UnknownAlgorithmError
        If ``name`` is not registered (with a closest-match suggestion).
    """
    from repro.runtime.context import get_context, use_context
    from repro.runtime.fastpath import fast_paths

    ctx = context if context is not None else get_context()
    spec = REGISTRY.get(name)
    use_fast = spec.wants_fast(instance, fast, ctx)
    kernel = spec.runs_kernel(instance, use_fast)
    fn = spec.fast_fn if kernel and spec.fast_fn is not None else spec.fn
    ctx.metrics.counter("registry.dispatch").inc()
    ctx.metrics.counter(
        "registry.dispatch_fast" if kernel else "registry.dispatch_reference"
    ).inc()
    t0 = time.perf_counter()
    with use_context(ctx), fast_paths(use_fast):
        coloring = fn(instance)
    elapsed = time.perf_counter() - t0
    ctx.metrics.histogram("registry.color_seconds").observe(elapsed)
    return coloring.with_algorithm(name, elapsed=elapsed)
