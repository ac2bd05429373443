"""High-level facade: partition a Python handler in one call.

Typical use::

    from repro.core import MethodPartitioner
    from repro.core.costmodels import DataSizeCostModel
    from repro.ir import default_registry

    registry = default_registry()
    registry.register_class(ImageData)
    registry.register_function("display", display, receiver_only=True)

    partitioner = MethodPartitioner(registry)
    pm = partitioner.partition(push_handler, DataSizeCostModel())
    modulator = pm.make_modulator(profiling=pm.make_profiling_unit())
    demodulator = pm.make_demodulator()

    result = modulator.process(event)
    if result.message is not None:
        demodulator.process(result.message)   # at the receiver

Static analysis is the expensive half of partitioning (lowering, the Unit
Graph, DDG, liveness, TargetPath enumeration, ConvexCut) and its inputs
are immutable once computed, so :meth:`MethodPartitioner.partition` keeps
an **analysis-artifact cache**: repeated calls with the same handler, cost
model, and analysis options reuse the lowered IR and
:class:`~repro.core.convexcut.ConvexCutResult` instead of rebuilding them
per run — experiments that re-partition the same handler for every
configuration sweep pay the analysis once.  The cache is invalidated by
registry mutation (its :attr:`~repro.ir.registry.FunctionRegistry.version`
counter participates in the key) and can be disabled or cleared
explicitly.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.core.context import AnalysisContext
from repro.core.continuation import ContinuationCodec
from repro.core.convexcut import convex_cut
from repro.core.costmodels.base import CostModel
from repro.core.partitioned import PartitionedMethod
from repro.ir.builder import lower_function
from repro.ir.function import IRFunction
from repro.ir.interpreter import DEFAULT_BACKEND, Interpreter
from repro.ir.registry import FunctionRegistry, default_registry
from repro.ir.validate import validate_function
from repro.serialization import SerializerRegistry


class MethodPartitioner:
    """Front door of the library: handler in, modulator/demodulator out.

    The only application knowledge required is the cost model passed to
    :meth:`partition` — the paper's "minimal deployment-time knowledge".

    Every modulator / demodulator produced from this partitioner runs on
    generated Python source (``"codegen"``, the default); ``backend="tree"``
    runs the reference tree-walking evaluator the equivalence tests
    compare against.
    """

    def __init__(
        self,
        registry: Optional[FunctionRegistry] = None,
        serializer_registry: Optional[SerializerRegistry] = None,
        *,
        backend: str = DEFAULT_BACKEND,
        analysis_cache: bool = True,
    ) -> None:
        self.registry = registry or default_registry()
        self.serializer_registry = serializer_registry or SerializerRegistry()
        self.backend = backend
        self.interpreter = Interpreter(self.registry, backend=backend)
        self._analysis_cache: Optional[Dict[tuple, tuple]] = (
            {} if analysis_cache else None
        )
        self.analysis_cache_hits = 0
        self.analysis_cache_misses = 0

    # -- analysis-artifact cache -------------------------------------------

    def clear_analysis_cache(self) -> None:
        """Drop every cached (IR, ConvexCut) artifact."""
        if self._analysis_cache is not None:
            self._analysis_cache.clear()

    def analysis_cache_info(self) -> Dict[str, int]:
        """Hit/miss/entry counts, for experiment reporting."""
        return {
            "hits": self.analysis_cache_hits,
            "misses": self.analysis_cache_misses,
            "entries": (
                len(self._analysis_cache)
                if self._analysis_cache is not None
                else 0
            ),
        }

    def _cache_key(
        self,
        handler: Union[Callable, str, IRFunction],
        cost_model: CostModel,
        receiver_vars: Sequence[str],
        constants: Optional[Dict[str, object]],
        max_paths: int,
        inline_helpers: bool,
    ) -> Optional[tuple]:
        """Build a cache key, or None when the inputs defy safe caching.

        The cost model and callable handlers enter the key by object
        identity (the key tuple itself pins them against garbage
        collection, so ids cannot be recycled while an entry lives);
        an :class:`IRFunction` handler is keyed by id and re-verified by
        identity on hit because the dataclass is unhashable.
        """
        if self._analysis_cache is None:
            return None
        if isinstance(handler, IRFunction):
            hkey: object = ("ir", id(handler))
        else:
            hkey = handler  # source text or callable; both hashable
        if constants:
            try:
                ckey: object = tuple(sorted(constants.items()))
                hash(ckey)
            except TypeError:
                return None
        else:
            ckey = None
        try:
            key = (
                hkey,
                cost_model,
                tuple(receiver_vars),
                ckey,
                max_paths,
                inline_helpers,
                self.registry.version,
            )
            hash(key)
        except TypeError:
            return None
        return key

    def partition(
        self,
        handler: Union[Callable, str, IRFunction],
        cost_model: CostModel,
        *,
        receiver_vars: Sequence[str] = (),
        constants: Optional[Dict[str, object]] = None,
        max_paths: int = 4096,
        inline_helpers: bool = True,
    ) -> PartitionedMethod:
        """Statically analyze *handler* and produce its partitioned form.

        Args:
            handler: a Python function, handler source text, or an already
                lowered :class:`IRFunction`.
            cost_model: the deployment-time customization criterion.
            receiver_vars: variable names pinned to the receiver
                (instructions touching them become StopNodes).
            constants: compile-time constant names for the handler body.
            max_paths: TargetPath enumeration cap.
            inline_helpers: expand helpers registered via
                ``registry.register_inline`` into the handler's UG (the
                paper's whole-program future work); opaque functions are
                unaffected either way.
        """
        key = self._cache_key(
            handler, cost_model, receiver_vars, constants, max_paths,
            inline_helpers,
        )
        if key is not None:
            cached = self._analysis_cache.get(key)
            if cached is not None and (
                not isinstance(handler, IRFunction) or cached[0] is handler
            ):
                self.analysis_cache_hits += 1
                return self._assemble(cached[1], cached[2])
            self.analysis_cache_misses += 1

        if isinstance(handler, IRFunction):
            fn = handler
        else:
            fn = lower_function(
                handler,
                self.registry,
                receiver_vars=receiver_vars,
                constants=constants,
            )
        if inline_helpers:
            from repro.ir.inliner import inline_calls

            fn = inline_calls(fn, self.registry)
        validate_function(fn)
        ctx = AnalysisContext.build(fn, self.registry, max_paths=max_paths)
        cut = convex_cut(ctx, cost_model)
        if key is not None:
            self._analysis_cache[key] = (handler, fn, cut)
        return self._assemble(fn, cut)

    def _assemble(self, fn: IRFunction, cut) -> PartitionedMethod:
        """Wrap the (possibly cached) analysis artifacts in runtime form."""
        return PartitionedMethod(
            function=fn,
            cut=cut,
            registry=self.registry,
            serializer_registry=self.serializer_registry,
            interpreter=self.interpreter,
            codec=ContinuationCodec(self.serializer_registry),
        )
