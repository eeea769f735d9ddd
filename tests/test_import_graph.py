"""Each command loads only the layers it drives.

``import repro`` resolves its public names on first access, so a fresh
``import repro.cli`` stops at argparse, ``repro.config``, ``repro.faults``
and ``repro.obs``; a command imports its layer when it runs.  Every check
here runs in a fresh interpreter: this process has long since imported
every layer on behalf of other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

#: what drives or checks a simulation: none of it is needed to parse flags
SIMULATOR = ("repro.core", "repro.sim", "repro.cluster", "repro.hashing",
             "repro.data", "repro.workload")
NOT_FOR_THE_CLI = ("numpy", "multiprocessing", *SIMULATOR, "repro.bench",
                   "repro.analysis", "repro.checkers")

TINY_RUN = ["run", "--r-tuples", "0.004", "--s-tuples", "0.004",
            "--scale", "1.0", "--chunk-tuples", "200", "--pool", "8",
            "--sources", "2", "--node-memory-mb", "0.04", "--initial-nodes", "2"]


def loaded_after(code: str) -> set[str]:
    """The ``sys.modules`` names (packages and submodules) a fresh
    interpreter holds after running ``code``."""
    code += "\nimport sys\nprint(__import__('json').dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120).stdout
    return set(json.loads(out.splitlines()[-1]))


def under(names: set[str], roots: tuple[str, ...]) -> list[str]:
    """The ``names`` that are one of ``roots`` or inside one of them."""
    return sorted(n for n in names
                  if any(n == r or n.startswith(r + ".") for r in roots))


def test_cli_import_and_parser_load_no_simulation_layer():
    names = loaded_after("import repro.cli\nrepro.cli.build_parser()")
    assert under(names, NOT_FOR_THE_CLI) == []
    assert {"repro.config", "repro.faults", "repro.obs"} <= names
    # the parser reads MIN_BUDGET_BYTES from the package, not a submodule
    assert under(names, ("repro.obs",)) == ["repro.obs"]
    assert "hashlib" not in names


@pytest.mark.parametrize("argv", [
    ["bench-diff", "BENCH_2.json", "BENCH_2.json"],
    ["tail", "SNAPSHOT"],
    ["lint", "--list"],
], ids=lambda argv: argv[0])
def test_commands_that_simulate_nothing_load_no_simulator(argv, tmp_path):
    snap = tmp_path / "s.jsonl"
    argv = [str(snap) if a == "SNAPSHOT" else a for a in argv]
    names = loaded_after(
        "from repro.obs import Snapshot\n"
        f"open({str(snap)!r}, 'w').write(Snapshot(t=1.0, shards=('s',))"
        ".to_json() + '\\n')\n"
        "from repro.cli import main\n"
        f"assert main({argv!r}) == 0\n"
    )
    assert under(names, ("numpy", "repro.core", "repro.sim",
                         "repro.workload")) == []


def test_a_single_join_loads_no_workload_bench_or_checker_layer():
    names = loaded_after(
        f"from repro.cli import main\nassert main({TINY_RUN!r}) == 0")
    assert "repro.core" in names
    assert under(names, ("repro.workload", "repro.bench", "repro.checkers",
                         "multiprocessing")) == []


def test_the_kernel_imports_on_its_own():
    names = loaded_after("import repro.sim")
    assert under(names, ("repro",)) == sorted(
        ["repro", *under(names, ("repro.sim",))])


def test_the_observability_layer_is_dependency_free():
    names = loaded_after("import repro.obs")
    assert "numpy" not in names
    assert under(names, ("repro",)) == sorted(
        ["repro", *under(names, ("repro.obs",))])


def test_every_public_name_resolves():
    import repro.bench
    import repro.obs
    from repro.core import run_join

    for module in (repro, repro.bench, repro.obs):
        for name in module.__all__:
            assert getattr(module, name) is not None, name
        assert set(module.__all__) <= set(dir(module))
        with pytest.raises(AttributeError, match="not_there"):
            module.not_there  # noqa: B018
    assert repro.run_join is run_join
