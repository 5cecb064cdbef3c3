"""The user-facing programming model.

Subclass :class:`SDGProgram`, declare state with ``Partitioned`` /
``Partial`` fields, write ordinary imperative methods, mark the external
operations with ``@entry`` — then either

* *instantiate and call* the class for plain sequential execution (the
  annotations degrade to single-instance semantics), or
* :meth:`SDGProgram.launch` it: the class is translated to an SDG and
  deployed on the in-process runtime; entry methods become injection
  proxies on the returned :class:`BoundProgram`.

The two execution modes compute the same results — that equivalence is
the correctness contract of the translation (and is what the test suite
checks program-by-program).
"""

from __future__ import annotations

from typing import Any

from repro.core.graph import SDG
from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import Runtime
from repro.translate.builder import TranslationResult, translate


class SDGProgram:
    """Base class for annotated imperative programs."""

    @classmethod
    def translate(cls) -> TranslationResult:
        """Run py2sdg over this class."""
        return translate(cls)

    @classmethod
    def to_sdg(cls) -> SDG:
        """The translated stateful dataflow graph."""
        return translate(cls).sdg

    @classmethod
    def launch(cls, config: RuntimeConfig | None = None,
               **se_instances: int) -> "BoundProgram":
        """Translate, deploy and return a callable program handle.

        ``se_instances`` conveniently sets initial SE instance counts by
        field name: ``CF.launch(user_item=4, co_occ=2)``.
        """
        result = translate(cls)
        if se_instances:
            config = config or RuntimeConfig()
            config.se_instances.update(se_instances)
        if config is not None and config.optimize \
                and config.capabilities is None:
            # Certify from the *class* (source-level proofs see the
            # original method bodies, where the SDG path would have to
            # re-derive them from compiled block functions) and hand
            # the certificate to the runtime through the config.
            from repro.analysis.capabilities import certify
            config.capabilities = certify(cls)
            result.capabilities = config.capabilities
        runtime = Runtime(result.sdg, config).deploy()
        return BoundProgram(result, runtime)


class _EntryProxy:
    """Callable proxy injecting one entry method's invocations."""

    def __init__(self, bound: "BoundProgram", method: str) -> None:
        self._bound = bound
        self._info = bound.translation.entry_info(method)

    def __call__(self, *args: Any) -> None:
        params = self._info.params
        if len(args) != len(params):
            raise TypeError(
                f"{self._info.method}() takes {len(params)} arguments "
                f"({', '.join(params)}); got {len(args)}"
            )
        payload: Any
        if len(args) == 0:
            payload = ()
        elif len(args) == 1:
            payload = args[0]
        else:
            payload = tuple(args)
        self._bound.runtime.inject(self._info.entry_te, payload)


class BoundProgram:
    """A translated program deployed on a runtime.

    Entry methods are exposed as attributes: calling one injects the
    invocation into the dataflow. ``run()`` drains the pipeline;
    ``results(method)`` returns the values produced by the method's
    terminal TE (its ``return`` statements).
    """

    def __init__(self, translation: TranslationResult,
                 runtime: Runtime) -> None:
        self.translation = translation
        self.runtime = runtime

    def __getattr__(self, name: str) -> _EntryProxy:
        if name in self.translation.entries:
            return _EntryProxy(self, name)
        raise AttributeError(
            f"{self.translation.program_class.__name__} has no entry "
            f"method {name!r}"
        )

    def run(self, max_steps: int = 10_000_000) -> int:
        """Process until the pipeline is idle; returns items processed."""
        return self.runtime.run_until_idle(max_steps=max_steps)

    def call(self, method: str, *args: Any) -> None:
        """Explicit-name alternative to the attribute proxies."""
        _EntryProxy(self, method)(*args)

    def results(self, method: str) -> list[Any]:
        """Returned values of ``method``'s terminal task element."""
        info = self.translation.entry_info(method)
        return list(self.runtime.results.get(info.terminal_te, []))

    def state_of(self, field: str) -> list:
        """The live SE elements of one state field (one per instance)."""
        return [inst.element
                for inst in self.runtime.se_instances(field)]
