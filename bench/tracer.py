"""Span tracing for the traced run, installed from the benchmark's own files.

Each traced function is wrapped at the attribute its caller resolves at call
time (``cpshrink.cli.shrink_report``, ``cpshrink.shrink.gauge_eval``,
``numpy.linalg.svd``, ...), so ``src/`` is left untouched. A span records its
name, start, end, parent and command id, plus a work count for the kernels
(matrices for SVD, spectra for ``gauge_eval``). Spans are kept in flat arrays
in memory and written once, when the run ends. Only calls made while a command
is active are recorded, so the benchmark's own checker never shows up.
"""

from __future__ import annotations

import functools
import math
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

ELB = "shrink.empirical_lower_bound"


def _svd_work(args):
    a = np.asarray(args[0])
    matrices = math.prod(a.shape[:-2])
    return matrices, matrices * a.shape[-2] * a.shape[-1] * 16


def _gauge_work(args):
    return math.prod(np.shape(args[1])[:-1]), 0


def _sites():
    """(owner, attribute, span name, work counter) for every traced call site.

    A function imported into several modules is wrapped at each importer,
    since that is where its callers look it up.
    """
    import cpshrink.channel as channel
    import cpshrink.cli as cli
    import cpshrink.shrink as shrink

    out = [(cli, "main", "cli.main", None), (cli, "resolve_channel", "cli.resolve_channel", None)]
    for owner, names in (
        (cli, ("shrink_report", "check_kyfan_bounds", "check_gauge_bounds", "shrink_upper_bound")),
        (shrink, ("empirical_lower_bound", "trace_shrink_factor", "spectral_shrink_factor", "shrink_upper_bound")),
    ):
        out += [(owner, n, f"shrink.{n}", None) for n in names]
    out.append((shrink, "gauge_eval", "gauge.gauge_eval", _gauge_work))
    for owner, names in (
        (cli, ("random_hermitian", "spectral_norm")),
        (shrink, ("singular_values", "spectral_norm", "hermitian_eigensystem", "random_hermitian")),
    ):
        out += [(owner, n, f"spectral.{n}", None) for n in names]
    for n in ("apply", "invariants", "remix", "choi_matrix", "from_json"):
        out.append((channel.KrausChannel, n, f"channel.{n}", None))
    out.append((np.linalg, "svd", "numpy.svd", _svd_work))
    out.append((np, "einsum", "numpy.einsum", None))
    out += [(np.linalg, n, f"numpy.{n}", None) for n in ("eigh", "eigvalsh")]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.nid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cmd = array("q")
        self.work = array("q")
        self.nbytes = array("q")
        self.stack: list[int] = []
        self.active_cmd = -1  # id of the command being run, -1 between commands
        self.commands = 0

    @contextmanager
    def installed(self):
        """Wrap every traced site for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, work in _sites():
                raw = owner.__dict__[attr]
                nid = self.name_id.setdefault(name, len(self.name_id))
                if nid == len(self.names):
                    self.names.append(name)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, nid, work))
                else:
                    wrapped = self._wrap(raw, nid, work)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @contextmanager
    def command(self):
        """Record the block's spans under a fresh command id."""
        self.active_cmd = self.commands
        self.commands += 1
        try:
            yield
        finally:
            self.active_cmd = -1

    def _wrap(self, fn, nid, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active_cmd < 0:
                return fn(*args, **kwargs)
            count, nbytes = work(args) if work else (0, 0)
            idx = len(tracer.nid)
            tracer.nid.append(nid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.cmd.append(tracer.active_cmd)
            tracer.work.append(count)
            tracer.nbytes.append(nbytes)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            key: np.frombuffer(getattr(self, key), dtype=getattr(self, key).typecode)
            for key in ("nid", "start", "end", "parent", "cmd", "work", "nbytes")
        }

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# (layer metric, statistic) pairs reported by the traced run, per traced pass.
COUNTS = (
    ("shrink.empirical_lower_bound", "calls"),
    ("shrink.trace_shrink_factor", "calls"),
    ("numpy.svd", "calls"),
    ("numpy.svd", "matrices"),
    ("numpy.svd", "bytes_in"),
    ("numpy.einsum", "calls"),
    ("gauge.gauge_eval", "calls"),
    ("gauge.gauge_eval", "spectra"),
    ("shrink.check_kyfan_bounds", "calls"),
    ("shrink.check_gauge_bounds", "calls"),
    ("shrink.shrink_upper_bound", "calls"),
    ("spectral.singular_values", "calls"),
    ("spectral.hermitian_eigensystem", "calls"),
    ("spectral.random_hermitian", "calls"),
    ("channel.apply", "calls"),
    ("channel.invariants", "calls"),
    ("cli.main", "calls"),
)
TIMES = (
    ("shrink.shrink_report", "s"),
    ("shrink.empirical_lower_bound", "s"),
    ("shrink.empirical_lower_bound", "self_s"),
    ("numpy.svd", "s"),
    ("numpy.einsum", "s"),
    ("gauge.gauge_eval", "s"),
    ("shrink.check_kyfan_bounds", "s"),
    ("shrink.check_gauge_bounds", "s"),
    ("shrink.shrink_upper_bound", "s"),
    ("spectral.singular_values", "s"),
    ("channel.apply", "s"),
    ("channel.invariants", "s"),
    ("channel.remix", "s"),
    ("channel.choi_matrix", "s"),
    ("channel.from_json", "s"),
    ("cli.resolve_channel", "s"),
)


def summarize(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass; every pass runs identical commands, so
    each count is an exact integer."""
    a = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    covered = np.zeros(dur.size)
    np.add.at(covered, a["parent"][has_parent], dur[has_parent])
    self_time = dur - covered

    # a span lies under an empirical_lower_bound span if some ancestor is one
    under = np.zeros(dur.size, dtype=bool)
    elb = ids.get(ELB, -1)
    ancestor = a["parent"].copy()
    while (ancestor >= 0).any():
        live = ancestor >= 0
        under[live] |= a["nid"][ancestor[live]] == elb
        ancestor[live] = a["parent"][ancestor[live]]

    def mask(name):
        return a["nid"] == ids.get(name, -1)

    def per_pass_count(total):
        assert total % passes == 0, f"count {total} not a multiple of {passes} passes"
        return int(total // passes)

    out: dict[str, float] = {}
    for name, stat in COUNTS:
        m = mask(name)
        total = int(m.sum()) if stat == "calls" else int(a["nbytes" if stat == "bytes_in" else "work"][m].sum())
        out[f"{name}.{stat}"] = per_pass_count(total)
    for name, stat in TIMES:
        out[f"{name}.{stat}"] = float((dur if stat == "s" else self_time)[mask(name)].sum()) / passes
    svd_in_elb = mask("numpy.svd") & under
    elb_calls = out[f"{ELB}.calls"]
    out["numpy.svd.calls_per_elb"] = int(svd_in_elb.sum()) / passes / elb_calls if elb_calls else 0.0
    out["numpy.svd.matrices_per_elb"] = int(a["work"][svd_in_elb].sum()) / passes / elb_calls if elb_calls else 0.0
    eig = mask("numpy.eigh") | mask("numpy.eigvalsh")
    out["numpy.eig.calls"] = per_pass_count(int(eig.sum()))
    out["cli.self_s"] = float(self_time[mask("cli.main")].sum()) / passes
    return out
