"""Layer tracing for corrlearn, installed from outside the package.

``Tracer.install`` replaces each layer-boundary function listed in
``SPANS`` with a timing wrapper at every module that binds it (``from .x
import f`` copies the binding, so patching the defining module alone
would miss callers). The two terminal-reward factories are wrapped so the
reward callables they return become ``mdp.reward`` spans. Each span knows
its parent; a span's self time is its duration minus that of its child
spans. Only aggregates are kept: per-span calls, total and self time, the
parent->child call counts, and the exact work counters below.

Helpers called from inside a span (``transitions``, ``l1_error``, ...)
are deliberately not wrapped: their time belongs to the calling layer,
and wrapping them would multiply the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import Counter

SPANS = (
    ("cli", "main"),
    ("experiments", "run_and_format"),
    ("experiments", "run_bounds"),
    ("experiments", "format_csv"),
    ("dp", "solve"),
    ("dp", "policy_dump"),
    ("teacher", "run_online"),
    ("core", "sample_sequence"),
    ("batch", "batch_correct"),
    ("batch", "e_min"),
    ("batch", "attainable_error"),
    ("bounds", "monte_carlo_report"),
    ("likelihood", "ml_estimate"),
    ("likelihood", "misclassification_experiment"),
)
REWARD_FACTORIES = (("mdp", "l1_terminal_reward"), ("likelihood", "bio_terminal_reward"))
REWARD_SPAN = "mdp.reward"


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _corrlearn_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if name == "corrlearn" or name.startswith("corrlearn.")
    ]


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = {
            "dp.solve.keys": set(),
            "mdp.reward.distinct": set(),
            "bounds.monte_carlo_report.points": set(),
        }
        self.missing: list[str] = []
        # id -> (name, function); holding the function keeps its id unique.
        self._originals: dict[int, tuple[str, object]] = {}
        # One entry per open span: [name, time covered by its child spans].
        self._stack: list[list] = []

    # -- spans ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                self.edges[f"{parent}>{name}"] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- work counters -------------------------------------------------

    def _after_solve(self, args, kwargs, result) -> None:
        spec = _arg(args, kwargs, 0, "spec")
        reward_key = getattr(spec.reward.evaluate, "reward_key", ("opaque", id(spec.reward)))
        self.distinct["dp.solve.keys"].add((spec.k, spec.n, spec.model, reward_key))

    def _after_policy_dump(self, args, kwargs, result) -> None:
        self.counters["dp.policy_dump.rows"] += result.count("\n")

    def _after_run_online(self, args, kwargs, result) -> None:
        self.counters["teacher.run_online.steps"] += len(_arg(args, kwargs, 0, "seq"))
        self.counters["teacher.run_online.budget_spent"] += result.budget_spent

    def _after_monte_carlo(self, args, kwargs, result) -> None:
        n, m, b = result.n, result.m, result.b
        seed = _arg(args, kwargs, 4, "seed")
        dist = args[5] if len(args) > 5 else kwargs.get("dist")
        self.distinct["bounds.monte_carlo_report.points"].add(
            (n, m, b, result.trials, seed, dist)
        )
        self.counters["bounds.monte_carlo_report.draws"] += result.trials * n

    def _reward_factory(self, qualname: str, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            reward = factory(*args, **kwargs)
            key = (qualname, repr(args), repr(sorted(kwargs.items())))
            distinct = self.distinct["mdp.reward.distinct"]

            def after(a, kw, result) -> None:
                distinct.add((key, _arg(a, kw, 0, "counts").counts))

            evaluate = self._span(REWARD_SPAN, reward.evaluate, after)
            evaluate.reward_key = key
            return dataclasses.replace(reward, evaluate=evaluate)

        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        hooks = {
            "dp.solve": self._after_solve,
            "dp.policy_dump": self._after_policy_dump,
            "teacher.run_online": self._after_run_online,
            "bounds.monte_carlo_report": self._after_monte_carlo,
        }
        for module, attr in SPANS:
            name = f"{module}.{attr}"
            self._patch(module, attr, lambda fn, name=name: self._span(name, fn, hooks.get(name)))
        for module, attr in REWARD_FACTORIES:
            self._patch(module, attr, lambda fn, q=f"{module}.{attr}": self._reward_factory(q, fn))

    def _patch(self, module: str, attr: str, make) -> None:
        original = getattr(importlib.import_module(f"corrlearn.{module}"), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        self._originals[id(original)] = (f"{module}.{attr}", original)
        wrapper = make(original)
        for mod in _corrlearn_modules():
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapper)

    def check_coverage(self) -> None:
        """Raise if any corrlearn module still binds an unwrapped original."""
        left = [
            f"{mod.__name__}.{binding} ({self._originals[id(value)][0]})"
            for mod in _corrlearn_modules()
            for binding, value in list(vars(mod).items())
            if id(value) in self._originals
        ]
        if left:
            raise RuntimeError(f"unwrapped bindings of traced functions: {', '.join(left)}")

    def summary(self) -> dict:
        counters = dict(self.counters)
        counters.update({name: len(keys) for name, keys in self.distinct.items()})
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.calls)
            },
            "edges": dict(sorted(self.edges.items())),
            "counters": dict(sorted(counters.items())),
            "missing": self.missing,
        }
