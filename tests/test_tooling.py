"""The benchmark tracer (perfbench/tracer.py) still finds every function it wraps."""

import importlib
import importlib.util
import threading
from pathlib import Path

import numpy as np

from snrq import (
    GridSpec,
    SolverConfig,
    cd_refine,
    fit_grid,
    gptaq_round,
    ksnrq_beam,
    order_and_factor,
    snrq_lazy,
)
from snrq import solvers

from conftest import random_batch, random_spd

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = load_tracer().TARGETS
    missing = [(mod, attr) for mod, attr, *_ in targets
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_row_chunk_workers_call_no_traced_name(rng, monkeypatch):
    # the tracer keeps one span stack per thread and parents spans by it, so
    # every wrapped name must be called from the thread that runs the op
    threads = set()
    for mod, attr, *_ in load_tracer().TARGETS:
        if mod != "snrq.solvers":
            continue
        fn = getattr(solvers, attr)

        def wrapper(*args, _fn=fn, **kwargs):
            threads.add(threading.get_ident())
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solvers, attr, wrapper)
    monkeypatch.setenv("SNRQ_THREADS", "2")

    m, n = 150, 12  # three 64-row chunks
    w = rng.normal(size=(m, n))
    h = random_spd(rng, n)
    h[np.diag_indices(n)] += np.linspace(0, 5, n)[::-1]  # act_order permutes
    fact = order_and_factor(h, SolverConfig())
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    lazy = snrq_lazy(w, fact, params, SolverConfig(block_size=4))
    ksnrq_beam(w, fact, params, SolverConfig(beam_width=3, block_size=4))
    cd_refine(lazy, w, fact, params, passes=1)
    batch = random_batch(rng, n, 3 * n)
    gptaq_cfg = SolverConfig(solver="gptaq")
    gptaq_round(w, order_and_factor(batch.xq @ batch.xq.T, gptaq_cfg), params, gptaq_cfg, batch)
    assert threads == {threading.get_ident()}
