"""The benchmark (perfbench/) still resolves every traced function and loads every workload;
the package keeps to its declared dependencies; the README's library example runs, and
its CLI lines and config block parse."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from snrq import (
    GridSpec,
    SolverConfig,
    cd_refine,
    fit_grid,
    gptaq_round,
    ksnrq_beam,
    order_and_factor,
    snrq_greedy,
)
from snrq import cli, grid, pipeline, solvers
from snrq.pipeline import RunConfig, quantize_network
from snrq.solvers import RoundResult

from conftest import random_batch, random_spd

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def test_unread_imports_are_tracer_targets():
    # a name a module imports but never reads is there only for the tracer to
    # wrap; any other such name is a dead import
    wrapped = {(mod, attr) for mod, attr, *_ in load_tracer().TARGETS}
    unread = set()
    for path in sorted((ROOT / "src" / "snrq").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        module = "snrq" if path.stem == "__init__" else f"snrq.{path.stem}"
        exported = set(getattr(importlib.import_module(module), "__all__", ()))
        unread |= {(module, name) for name in imported - read - exported}
    assert sorted(unread - wrapped) == []


def test_tracer_clip_ratio_count_matches_the_grid():
    # the tracer computes grid.cells_evaluated as m * G * CLIP_RATIOS per MSE-clipped fit
    assert load_tracer().CLIP_RATIOS == len(grid._CLIP_RATIOS)


def test_tracer_reads_cd_refine_arguments_by_position(monkeypatch):
    # the tracer's CD counts read args[4] as the pass count and args[0].codes
    # as the starting codes, so the pipeline passes both positionally
    calls = []
    refine = pipeline.cd_refine

    def recorder(*args, **kwargs):
        result = refine(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(pipeline, "cd_refine", recorder)
    cfg = RunConfig.from_dict({"solver": {"cd_passes": 2}, "network": {"depth": 2, "width": 8},
                               "calibration": {"n_sequences": 16}})
    quantize_network(cfg)
    assert len(calls) == 2
    for args, kwargs, result in calls:
        assert args[4] == 2
        assert isinstance(args[0], RoundResult)
        assert load_tracer()._cd_counts(args, kwargs, result)["visited_computed"] == 8 * 8 * 2


def test_tracer_counts_forward_collect_prefix_by_position(rng):
    # the tracer's forward-collect count reads args[2] as the quantized
    # prefix: two matmuls (teacher and student) per prefix layer
    layers = pipeline.synth_network(pipeline.NetworkConfig.chain(depth=4, width=6), 0)
    prefix = [np.round(w, 1) for w in layers[:3]]
    args = (layers, rng.normal(size=(6, 5)), prefix, "relu")
    result = pipeline.forward_collect(*args)
    counts = load_tracer()._forward_collect_counts(args, {}, result)
    assert counts == {"matmuls_computed": 2 * len(prefix)}


def test_benchmark_workload_configs_load():
    # a tighter config check must not silently reject a benchmark workload
    workloads = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"]
    assert workloads
    for workload in workloads.values():
        RunConfig.from_dict(workload["config"])


def test_traced_solver_names_run_on_the_op_thread(rng, monkeypatch):
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

    m, n = 150, 12
    w = rng.normal(size=(m, n))
    h = random_spd(rng, n)
    h[np.diag_indices(n)] += np.linspace(0, 5, n)[::-1]  # act_order permutes
    fact = order_and_factor(h, SolverConfig())
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    lazy = snrq_greedy(w, fact, params, SolverConfig(block_size=4))
    ksnrq_beam(w, fact, params, SolverConfig(beam_width=3, block_size=4))
    cd_refine(lazy, w, fact, params, passes=1, block_size=4)
    batch = random_batch(rng, n, 3 * n)
    gptaq_cfg = SolverConfig(solver="gptaq")
    gptaq_round(w, order_and_factor(batch.xq @ batch.xq.T, gptaq_cfg), params, gptaq_cfg, batch)
    assert threads == {threading.get_ident()}


def test_every_export_resolves():
    # a name left in an __all__ after its object is removed breaks `import *`
    modules = [importlib.import_module("snrq")] + [
        importlib.import_module(f"snrq.{path.stem}")
        for path in sorted((ROOT / "src" / "snrq").glob("*.py")) if path.stem != "__init__"
    ]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def imported_modules(path: Path) -> list[str]:
    """Every module an import in ``path`` names, at any depth, with relative imports in snrq.

    ``from m import x`` names both m and m.x, since x may be a submodule.
    """
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["snrq" if node.level else "", node.module]))
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
    return names


def test_package_imports_no_scipy():
    # scipy serves the tests and the benchmark's environment record only
    offenders = [f"{path.name}: {n}" for path in sorted((ROOT / "src" / "snrq").glob("*.py"))
                 for n in imported_modules(path) if n.split(".")[0] == "scipy"]
    assert offenders == []


def test_oracle_imports_nothing_of_the_pipeline():
    # the references stay independent of what they check; the seed study is the pipeline's
    names = imported_modules(ROOT / "src" / "snrq" / "oracle.py")
    assert [n for n in names if n == "snrq.pipeline" or n.startswith("snrq.pipeline.")] == []


@pytest.mark.parametrize("command", [
    ["quantize"],
    ["sweep", "--axis", "cd_passes", "--values", "0"],
    ["variance-sweep", "--repeats", "2"],
], ids=lambda command: command[0])
def test_quantize_does_not_import_the_oracle(tmp_path, command):
    # only the oracle, alpha-scan and dither-demo commands load it
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"network": {"depth": 1, "width": 4}, "calibration": {"n_sequences": 8}}))
    script = ("import sys; from snrq.cli import cli_main; "
              f"code = cli_main({command + ['--config', str(config)]!r}); "
              "print(code, 'snrq.oracle' in sys.modules, file=sys.stderr)")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.stderr.split() == ["0", "False"]


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [dep.split(">")[0].split("=")[0] for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_readme_cli_lines_and_config_block_parse():
    text = (ROOT / "README.md").read_text()
    argvs = [line.split()[1:] for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M)
             for line in block.splitlines() if line.startswith("snrq ")]
    assert len(argvs) >= 7
    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(argv)  # a line that does not parse raises cli.UsageError
    configs = re.findall(r"^```json\n(.*?)^```", text, flags=re.S | re.M)
    assert len(configs) == 1
    RunConfig.from_dict(json.loads(configs[0]))


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) == 1
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    loss, shape = proc.stdout.split(" ", 1)
    assert float(loss) >= 0.0 and shape.strip() == "(16, 32)"
