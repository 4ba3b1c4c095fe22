"""Outside-in tracer: spans around calls into cavework's public functions.

The program is not edited.  ``Tracer.install`` replaces each function in
``TRACED`` at every module attribute it is looked up under (for example
both ``distributions.closed_form`` and ``cli.closed_form``) with a
wrapper that records one span per call: name, start, end, parent span
and command id.  Spans live in compact in-memory arrays; ``save`` writes
them out once the run ends and ``layer_metrics`` aggregates them.

A wrapper returns what the function returned and raises what it raised.
"""

from __future__ import annotations

import array
import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, function) pairs behind the per-layer metrics
TRACED = (
    ("cavity", "mode_spectrum"),
    ("bessel", "bessel_zero"),
    ("driving", "classify_resonances"),
    ("charfun", "closed_form"),
    ("charfun", "closed_form_general"),
    ("charfun", "moments"),
    ("symplectic", "charfun_from_generator"),
    ("distributions", "verify_fluctuation_theorems"),
    ("distributions", "extract_marginal_work"),
    ("distributions", "extract_marginal_photons"),
    ("distributions", "cumulative_and_fit"),
    ("distributions", "marginal_to_csv"),
    ("distributions", "cumulative_to_csv"),
    ("fock", "build_evolution"),
    ("fock", "two_point_measurement"),
)

# functions whose first argument is the characteristic function they invert
_INVERSIONS = ("distributions.extract_marginal_work", "distributions.extract_marginal_photons")
_OUTPUT = (
    "distributions.cumulative_and_fit",
    "distributions.marginal_to_csv",
    "distributions.cumulative_to_csv",
)
_COMPLEX_BYTES = 16
PACKAGE = "cavework"


class Tracer:
    """Span recorder for one process; spans are kept until ``save``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.commands: list[str] = []
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.command_of = array.array("i")
        self._stack = [-1]
        self._command = -1
        self._patches: list[tuple[object, str, object]] = []
        # per-command distinct Bessel root arguments, and layer payloads
        self.bessel_distinct = 0
        self._bessel_seen: set = set()
        self.g_evals_in_inversions = 0
        self.fock_dimensions: list[int] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.command_of.append(self._command)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def command(self, label: str):
        """Root span of one CLI invocation; library spans nest under it."""
        self._command = len(self.commands)
        self.commands.append(label)
        self._bessel_seen = set()
        idx = self._open(self._name_id("cli.command"))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())
            self._command = -1

    def wrap(self, name: str, fn):
        """fn wrapped so that every call records a span called name."""
        nid = self._name_id(name)
        note = self._note(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                args = note(args)
            idx = self._open(nid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0, time.perf_counter())

        return traced

    def _note(self, name: str):
        """Argument hook that records a layer's counts, or None."""
        if name == "bessel.bessel_zero":
            def note(args):
                key = args[:3]
                if key not in self._bessel_seen:
                    self._bessel_seen.add(key)
                    self.bessel_distinct += 1
                return args
            return note
        if name in _INVERSIONS:
            def note(args):
                evaluate = args[0]

                def counted(*a, **k):
                    self.g_evals_in_inversions += 1
                    return evaluate(*a, **k)

                return (counted,) + tuple(args[1:])
            return note
        if name == "fock.build_evolution":
            def note(args):
                self.fock_dimensions.append(int(args[0].dimension))
                return args
            return note
        return None

    def install(self) -> None:
        """Wrap every TRACED function at each name it is looked up under."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if mod.__dict__.get(fn_name) is original:
                    self._patches.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patches):
            setattr(mod, fn_name, original)
        self._patches.clear()

    def save(self, path: str) -> None:
        """Write every span: name, start, end, parent, command id (.npz)."""
        np.savez(
            path,
            names=np.array(self.names),
            commands=np.array(self.commands),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            command=np.frombuffer(self.command_of, dtype=np.int32),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals, self times and counts over every recorded span."""
        name = np.frombuffer(self.name, dtype=np.uint16)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )

        def mask(*names: str) -> np.ndarray:
            ids = [self._ids[n] for n in names if n in self._ids]
            return np.isin(name, ids)

        def total(*names: str) -> float:
            return float(dur[mask(*names)].sum())

        def calls(*names: str) -> int:
            return int(mask(*names).sum())

        root = mask("cli.command")
        charfun = mask("charfun.closed_form", "charfun.closed_form_general", "charfun.moments")
        verify = mask("distributions.verify_fluctuation_theorems")
        # outermost charfun spans below a verify span, found by walking up
        under_verify = np.zeros(len(dur), dtype=bool)
        under_charfun = np.zeros(len(dur), dtype=bool)
        up = parent.copy()
        while (up >= 0).any():
            live = up >= 0
            under_verify[live] |= verify[up[live]]
            under_charfun[live] |= charfun[up[live]]
            up[live] = parent[up[live]]

        cf_calls = calls("charfun.closed_form")
        cfg_calls = calls("charfun.closed_form_general")
        g_time = total("charfun.closed_form", "charfun.closed_form_general")
        inversions = calls(*_INVERSIONS)
        bessel_calls = calls("bessel.bessel_zero")
        dims = self.fock_dimensions
        return {
            "cli.self_s": float((dur - child_time)[root].sum()),
            "cavity.mode_spectrum_s": total("cavity.mode_spectrum"),
            "bessel.bessel_zero_calls": bessel_calls,
            "bessel.bessel_zero_s": total("bessel.bessel_zero"),
            "bessel.distinct_ratio": (
                self.bessel_distinct / bessel_calls if bessel_calls else 0.0
            ),
            "driving.classify_resonances_s": total("driving.classify_resonances"),
            "charfun.closed_form_calls": cf_calls,
            "charfun.closed_form_s": total("charfun.closed_form"),
            "charfun.closed_form_general_calls": cfg_calls,
            "charfun.closed_form_general_s": total("charfun.closed_form_general"),
            "charfun.g_evals_per_s": (cf_calls + cfg_calls) / g_time if g_time else 0.0,
            "charfun.moments_s": total("charfun.moments"),
            "symplectic.charfun_from_generator_calls": calls(
                "symplectic.charfun_from_generator"
            ),
            "symplectic.charfun_from_generator_s": total(
                "symplectic.charfun_from_generator"
            ),
            "distributions.verify_self_s": float(
                dur[verify].sum() - dur[charfun & under_verify & ~under_charfun].sum()
            ),
            "distributions.extract_work_s": total("distributions.extract_marginal_work"),
            "distributions.extract_photons_s": total(
                "distributions.extract_marginal_photons"
            ),
            "distributions.g_evals_per_inversion": (
                self.g_evals_in_inversions / inversions if inversions else 0.0
            ),
            "distributions.output_s": total(*_OUTPUT),
            "fock.build_evolution_s": total("fock.build_evolution"),
            "fock.two_point_measurement_s": total("fock.two_point_measurement"),
            "fock.dimension": max(dims, default=0),
            "fock.dense_bytes_computed": sum(d * d * _COMPLEX_BYTES for d in dims),
        }
