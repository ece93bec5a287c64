"""Tracing of fedcausal's public functions from outside the package.

The tracer wraps functions without touching their source: every attribute of a
``fedcausal`` module that is bound to a traced function object is replaced by
a wrapper, so calls through ``from .numkit import fit_logistic`` style imports
are seen too; the wire codecs are wrapped as class attributes. Each call
records a span ``(name, start, end, parent, rep)`` in memory, where ``parent``
is the index of the enclosing span and ``rep`` the replication it belongs to.
Counts observed at the same boundaries (solver iterations, Jacobian
evaluations, capped weights, warnings) are kept per replication. A function
that no longer exists is recorded as missing, so the metrics derived from it
can be reported as absent rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import warnings
from collections import Counter, defaultdict

# (module, function) pairs wrapped wherever the function object is bound.
FUNCTIONS = (
    ("simbench", "run_replication"),
    ("simbench", "generate_site"),
    ("fedruntime", "run_round"),
    ("density_ratio", "target_moments"),
    ("density_ratio", "solve_tilt"),
    ("density_ratio", "truncate_weights"),
    ("nuisance", "fit_nuisances"),
    ("nuisance", "mix_propensity"),
    ("nuisance", "mix_outcome"),
    ("numkit", "fit_logistic"),
    ("numkit", "fit_ols"),
    ("numkit", "newton_solve"),
    ("numkit", "nnls_coordinate_descent"),
    ("site_estimator", "source_report"),
    ("site_estimator", "complete_source_estimate"),
    ("site_estimator", "estimate_target"),
    ("federation", "cross_validate_lambda"),
    ("federation", "combine_fixed"),
    ("federation", "global_estimate"),
)

# (module, class, attribute) of the wire codecs; their spans sum to
# fedruntime.codec.s.
CODECS = (
    ("site_estimator", "SourceSiteReport", "to_json"),
    ("site_estimator", "SourceSiteReport", "from_json"),
    ("site_estimator", "SiteEstimate", "to_json"),
    ("density_ratio", "MomentSummary", "to_json"),
    ("density_ratio", "MomentSummary", "from_json"),
    ("fedruntime", "ProtocolConfig", "to_dict"),
)

ROOT = "simbench.run_replication"
CODEC_PREFIX = "codec."


class Tracer:
    """Holds spans and per-replication counts of one traced run."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(Counter)  # rep -> Counter
        self.missing: list[str] = []
        self.rep = None
        self._stack: list[int] = []
        self._patches: list | None = None

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.rep][name] += n

    def _wrap(self, name, fn, before=None, after=None, root=False):
        tracer = self
        sig = inspect.signature(fn) if root else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if root:
                tracer.rep = sig.bind(*args, **kwargs).arguments["rep"]
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            rep = tracer.rep
            start = time.perf_counter()
            try:
                if root:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    for w in caught:
                        tracer.count(f"warn.{w.category.__name__}")
                else:
                    result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.count(f"{name}.errors")
                tracer.count(f"{name}.errors.{type(exc).__name__}")
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, start, end, stack[-1] if stack else -1, rep)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _hooks(self, name):
        """Argument and result observers for the functions that have counts."""
        if name == "numkit.newton_solve":
            def before(args, kwargs):
                def counted(jacobian):
                    def jac(x):
                        self.count("numkit.newton_solve.jac_evals")
                        return jacobian(x)
                    return jac
                if "jacobian" in kwargs:
                    kwargs = dict(kwargs, jacobian=counted(kwargs["jacobian"]))
                else:
                    args = (args[0], counted(args[1])) + tuple(args[2:])
                return args, kwargs
            return before, None
        if name == "numkit.fit_logistic":
            def after(fit):
                self.count("numkit.fit_logistic.iters", int(fit.iterations))
                self.count("numkit.fit_logistic.nonconverged", int(not fit.converged))
            return None, after
        if name == "density_ratio.truncate_weights":
            def after(result):
                self.count("density_ratio.truncate_weights.n_capped", int(result[1]["n_capped"]))
            return None, after
        if name == "federation.cross_validate_lambda":
            def after(solution):
                self.count("federation.lambda_zero", int(solution.lambda_ == 0.0))
            return None, after
        return None, None

    def install(self) -> None:
        """Wrap every traced function and codec; ``uninstall`` undoes it."""
        if self._patches is None:
            self._patches = self._build()
        for owner, key, _original, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _wrapper in reversed(self._patches or []):
            setattr(owner, key, original)

    def _build(self) -> list:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        patches = []
        package = [m for n, m in list(sys.modules.items())
                   if n == "fedcausal" or n.startswith("fedcausal.")]
        for modname, attr in FUNCTIONS:
            name = f"{modname}.{attr}"
            try:
                fn = getattr(importlib.import_module(f"fedcausal.{modname}"), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            before, after = self._hooks(name)
            wrapper = self._wrap(name, fn, before, after, root=(name == ROOT))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        patches.append((mod, key, fn, wrapper))
        for modname, clsname, attr in CODECS:
            name = f"{CODEC_PREFIX}{clsname}.{attr}"
            try:
                cls = getattr(importlib.import_module(f"fedcausal.{modname}"), clsname)
                raw = cls.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(self._wrap(name, raw.__func__))
            else:
                wrapper = self._wrap(name, raw)
            patches.append((cls, attr, raw, wrapper))
        return patches

    def write(self, path) -> None:
        """Write the spans, one JSON array per line: name, start, end, parent, rep."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def aggregate(self, count_reps: int, n_reps: int, scale) -> dict:
        """Per-span-name totals and per-replication counts.

        Times are summed over all ``n_reps`` traced replications, each span
        multiplied by ``scale[rep]`` (its replication's speed factor), and
        divided by ``n_reps``. Counts use only replications below
        ``count_reps``, which every run of a seed shares, so they repeat
        exactly.
        """
        total = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _rep in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = Counter()
        calls = Counter()
        for i, (name, start, end, _parent, rep) in enumerate(self.spans):
            total[name] += (end - start) * scale[rep]
            self_time[name] += (end - start - child[i]) * scale[rep]
            if rep < count_reps:
                calls[name] += 1
        counts = Counter()
        for rep, c in self.counts.items():
            if rep < count_reps:
                counts.update(c)
        return {
            "s": {k: v / n_reps for k, v in total.items()},
            "self_s": {k: v / n_reps for k, v in self_time.items()},
            "calls": {k: v / count_reps for k, v in calls.items()},
            "counts": {k: v / count_reps for k, v in counts.items()},
        }
