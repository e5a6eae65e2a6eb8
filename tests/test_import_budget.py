"""A command loads only what it runs.

Each CLI command runs once in a fresh interpreter on a tiny generated
feed/store (``tools/import_budget.py`` drives it, so ``make
import-budget`` reports on exactly these runs) and the test asserts on
``sys.modules`` as the command returns: the live and replay paths must
not pay for the simulator's router, the HTTP tier or scipy, and the
server must not pay for the simulator, the engine or the decoder.  No
command loads the paper-shaped reference (:mod:`repro.reference`): it
is what the commands are tested against, not a code path of theirs.
Sharing the durable frame (:mod:`repro.binfmt`) must not drag one
format's module into a command that never touches that format.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.service

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
try:
    import import_budget
finally:
    sys.path.pop(0)

PIPELINE_BUDGET = (
    "networkx",
    "scipy",
    "asyncio",
    "multiprocessing",
    "repro.service.aio",
    "repro.service.routes",
    "repro.simulation.platform",
    "repro.simulation.scenarios",
    "repro.simulation.tracer",
    "repro.simulation.routing",
    "repro.quality",
    "repro.reference",
)
STORE_BUDGET = (
    "networkx",
    "scipy",
    "multiprocessing",
    "repro.simulation",
    "repro.core.engine",
    "repro.atlas.columnar",
    "repro.atlas.connectors",
    "repro.atlas.bincache",
    "repro.core.checkpoint",
    "repro.reference",
)

#: command -> (modules it must not load, modules it cannot run without).
BUDGETS = {
    "monitor": (PIPELINE_BUDGET, ("repro.core.engine", "repro.atlas.stream")),
    "analyze": (
        PIPELINE_BUDGET, ("repro.core.engine", "repro.atlas.bincache")
    ),
    "serve": (STORE_BUDGET, ("asyncio", "repro.service.aio")),
    "compact": (STORE_BUDGET + ("asyncio",), ("repro.service.compact",)),
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("import-budget")
    import_budget.build_inputs(path)
    return path, import_budget.command_argv(path, path / "out")


@pytest.mark.parametrize("command", sorted(BUDGETS))
def test_command_stays_inside_its_import_budget(work, command):
    path, argv = work
    forbidden, required = BUDGETS[command]
    loaded = import_budget.run_command(argv[command], path)
    assert loaded.returncode == 0
    assert [name for name in forbidden if loaded.loads(name)] == []
    # The run did the real work (and the module snapshot is not empty).
    assert [name for name in required if not loaded.loads(name)] == []


def test_binfmt_loads_only_stdlib_and_numpy():
    """The frame module is a leaf: any persisting command can afford it."""
    probe = "import sys{}; print('\\n'.join(sorted(sys.modules)))"

    def loaded(extra):
        return set(
            subprocess.run(
                [sys.executable, "-c", probe.format(extra)],
                env=import_budget._ENV, capture_output=True, text=True,
                check=True,
            ).stdout.split()
        )

    added = loaded(", repro.binfmt") - loaded("")
    assert {name for name in added if name.split(".")[0] == "repro"} == {
        "repro", "repro._lazy", "repro.binfmt"
    }
    foreign = {
        name.split(".")[0] for name in added
    } - set(sys.stdlib_module_names) - {"numpy", "repro"}
    assert foreign == set()


class TestLazyFacade:
    def test_resolved_name_lands_in_the_package_dict(self):
        namespace = vars(repro.service)
        namespace.pop("StoreQuery", None)
        from repro.service.query import StoreQuery

        assert repro.service.StoreQuery is StoreQuery
        # Written back: the module ``__getattr__`` hook runs once a name.
        assert namespace["StoreQuery"] is StoreQuery

    def test_renamed_export_resolves_to_its_target(self):
        import repro.core
        from repro.obs.tracing import STAGE_NAMES, StageAccumulator

        assert repro.core.STAGES is STAGE_NAMES
        assert repro.core.StageTimer is StageAccumulator

    def test_dir_lists_every_export(self):
        assert set(dir(repro.service)) >= set(repro.service.__all__)
        assert set(dir(repro)) >= set(repro.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            repro.service.Nope
        assert not hasattr(repro, "nope")
        with pytest.raises(ImportError):
            from repro.stats import median_confidence_interval_batch  # noqa
