"""Outside-in layer tracing for one benchmark pass.

Every traced function is rebound, from the benchmark's side, to a timing
wrapper: the module attribute itself and every copy of it that another
chiraloop module bound with `from ... import`.  Nothing under `src/`
knows about tracing.  Each call records one span (function, parent span,
start, end) in memory; self time is computed once the pass has ended.

Tracing costs a few microseconds per call, so end-to-end figures are
always measured with tracing off.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (module, attribute path) of every traced function, in report order.
FUNCTIONS = (
    ("wigner", "wigner3j"),
    ("wigner", "w_coupling"),
    ("rotor", "rotor_levels"),
    ("rotor", "rotor_hamiltonian_block"),
    ("dipole", "reduced_matrix_element"),
    ("dipole", "rabi_frequency"),
    ("fields", "linear_polarization"),
    ("fields", "DriveField.pure"),
    ("loop", "loop_diagnostics"),
    ("loop", "closure_conditions"),
    ("loop", "closure_conditions_closed_form"),
    ("loop", "dressed_states"),
    ("loop", "enumerate_pure_polarizations"),
    ("loop", "verify_linear_orthogonality"),
    ("dynamics", "coupling_block"),
    ("dynamics", "assemble_full_hamiltonian"),
    ("dynamics", "loop_frame"),
    ("cli", "load_molecule"),
    ("cli", "_emit"),
    ("cli", "cmd_levels"),
    ("cli", "cmd_transitions"),
    ("cli", "cmd_loops_enumerate"),
    ("cli", "cmd_loops_verify"),
    ("cli", "cmd_loops_sample"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_contrast"),
)

MODULES = ("wigner", "rotor", "dipole", "fields", "loop", "dynamics", "cli")

NAMES = tuple(f"{module}.{attr}" for module, attr in FUNCTIONS)


class Tracer:
    """Installs timing wrappers, keeps spans in memory, restores on exit."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack = [-1]
        self._restore: list = []
        self.missing: list[str] = []
        self.emit_rows = 0
        self.emit_bytes = 0

    def install(self) -> None:
        modules = [importlib.import_module(f"chiraloop.{m}") for m in MODULES]
        for index, (module_name, attr) in enumerate(FUNCTIONS):
            owner = importlib.import_module(f"chiraloop.{module_name}")
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(leaf) if owner is not None else None
            if raw is None:
                self.missing.append(NAMES[index])
                continue
            if isinstance(raw, classmethod):
                self._rebind(owner, leaf, raw, classmethod(self._wrap(index, raw.__func__)))
                continue
            wrapped = self._wrap(index, raw)
            if NAMES[index] == "cli._emit":
                wrapped = self._count_emit(wrapped)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._rebind(module, name, raw, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _rebind(self, owner, name, original, replacement) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, replacement)

    def _wrap(self, index: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, parent, start, end)

        return traced

    def _count_emit(self, fn):
        """Count table rows and bytes written (stdout plus the CSV file)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = sys.stdout.tell()
            result = fn(*args, **kwargs)
            self.emit_bytes += sys.stdout.tell() - before
            if len(args) >= 2:
                self.emit_rows += len(args[1])
            csv_path = args[2] if len(args) >= 3 else kwargs.get("csv_path")
            if csv_path:
                self.emit_bytes += os.path.getsize(csv_path)
            return result

        return counted

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per function: exact call count and self time (span minus children)."""
        child = [0.0] * len(self.spans)
        for index, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(FUNCTIONS)
        self_s = [0.0] * len(FUNCTIONS)
        for slot, (index, _, start, end) in enumerate(self.spans):
            calls[index] += 1
            self_s[index] += end - start - child[slot]
        return {
            name: {"calls": calls[i], "self_s": self_s[i]} for i, name in enumerate(NAMES)
        }
