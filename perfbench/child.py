"""One timed benchmark run: set up the register, then call ``dnpsim.cli.main``.

Usage (the benchmark parent builds this command line)::

    python3 perfbench/child.py RESULT.json TRACE(0|1) CONFIG -- VERB ARGS...

Set-up is the work a command-line user pays on every invocation: importing
``dnpsim``, loading the register and building its operators and the
eigendecomposition of the static Hamiltonian. The parent starts its clock
just before it spawns this process; the ``ready`` timestamp written here
(``CLOCK_MONOTONIC``, shared by all processes of the machine) ends set-up.

With TRACE=1 the public functions of each layer are wrapped under the
names their callers use, and every call is kept as a span in memory. The
spans are written to RESULT.json after the verb has returned. A wrapped
name that no longer exists, or whose work count no longer fits the call,
is listed under ``missing`` instead of failing the run, so the parent can
report the metrics that need it as absent.
With TRACE=0 nothing is wrapped, and after the verb the child times a
fixed calibration computation (``calibrate``) that does not touch
``dnpsim``; the parent uses it to correct for the machine's speed.
"""

from __future__ import annotations

import functools
import importlib
import json
import platform
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# (module, attribute path, span name, work count taken from (args, result)).
# The attribute is patched where the caller looks it up, so each wrapper sees
# exactly the calls that caller makes.
HOOKS = (
    ("dnpsim.cli", "load_register_file", "spins.load", None),
    ("dnpsim.cli", "pulsepol_for_period", "protocols.build", None),
    ("dnpsim.cli", "cpmg_for_period", "protocols.build", None),
    ("dnpsim.cli", "sweep_trace", "engine.sweep", None),
    ("dnpsim.cli", "run_schedule", "engine.schedule", None),
    ("dnpsim.cli", "compute_spectrum", "floquet.spectrum", lambda a, r: len(a[2])),
    ("dnpsim.cli", "find_crossings", "floquet.crossings", lambda a, r: len(r)),
    ("dnpsim.engine", "run_protocol", "engine.run_protocol", lambda a, r: a[0].repetitions),
    ("dnpsim.engine", "period_unitary", "protocols.period_map", None),
    ("dnpsim.engine", "DensityState.validate", "engine.validate", None),
    ("dnpsim.floquet", "period_unitary", "protocols.period_map", None),
    ("dnpsim.floquet", "unitary_eigensolve", "linalg.unitary_eig", None),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index, work count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def call(self, name, fn, *args):
        return self.wrap(name, fn)(*args)


def calibrate() -> float:
    """Time of a fixed computation that does not use ``dnpsim``.

    It mixes what the workloads spend their time on: a Python loop over
    small complex matrices with a Hermitian eigensolve per step (the engine
    loop), dense complex products (the 256-dim kernels) and eigensolves of
    a 64-dim Hermitian matrix (the spectrum). Inputs are fixed, so only the
    machine's speed changes its time. The parts are interleaved in short
    rounds so that each sees the same stretch of the machine's speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))) / 4
    big = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
    herm = big[:64, :64] + big[:64, :64].conj().T
    start = time.perf_counter()
    for _ in range(80):
        rho = np.eye(16, dtype=complex)
        for _ in range(100):
            rho = small @ rho @ small.conj().T
            rho /= np.real(np.trace(rho))
            np.linalg.eigvalsh(rho)
        for _ in range(4):
            big @ big
        for _ in range(5):
            np.linalg.eigh(herm)
    return time.perf_counter() - start


def _counter(count, hook: str, missing: list[str]):
    """``count`` that reports its hook missing if the call's shape has changed."""
    def counted(args, result):
        try:
            return count(args, result)
        except (AttributeError, IndexError, TypeError):
            missing.append(hook)
            return 0
    return counted


def _install(tracer: Tracer, missing: list[str]) -> None:
    """Patch every hook that still exists; list the others in ``missing``."""
    for module_name, attr_path, span_name, count in HOOKS:
        hook = f"{module_name}.{attr_path}"
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except AttributeError:
            missing.append(hook)
            continue
        if count is not None:
            count = _counter(count, hook, missing)
        setattr(owner, attr, tracer.wrap(span_name, fn, count))


def main(argv: list[str]) -> int:
    result_path, trace, config = argv[0], argv[1] == "1", argv[2]
    verb_argv = argv[argv.index("--") + 1 :]
    tracer = Tracer()
    missing: list[str] = []

    from dnpsim import cli, spins

    def setup_step(span_name, attr, arg):
        # A set-up step that a later version folds away is skipped, not fatal.
        fn = getattr(spins, attr, None)
        if fn is None:
            missing.append(f"dnpsim.spins.{attr}")
            return None
        return tracer.call(span_name, fn, arg) if trace else fn(arg)

    register = setup_step("spins.load", "load_register_file", config)
    if register is not None:
        setup_step("spins.operators", "build_operators", register)
        setup_step("spins.h0_eig", "static_hamiltonian_eig", register)
    ready = _now()

    if trace:
        _install(tracer, missing)
        entry = tracer.wrap("cli.main", cli.main)
    else:
        entry = cli.main
    start = time.perf_counter()
    rc = entry(verb_argv)
    wall = time.perf_counter() - start
    sys.stdout.flush()

    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    import numpy

    # After getrusage, so the calibration cannot raise the peak memory.
    cal = None if trace else calibrate()
    record = {
        "rc": rc,
        "ready": ready,
        "wall_s": wall,
        "cal_s": cal,
        # ru_maxrss is in KiB on Linux. RUSAGE_CHILDREN holds the largest
        # pool worker that has been waited for.
        "maxrss_kib": self_usage.ru_maxrss + child_usage.ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "missing": sorted(set(missing)),
        "spans": tracer.spans if trace else [],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0 if rc == 0 else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
