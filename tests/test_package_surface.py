"""Public API surface tests: exports, error hierarchy, version."""

import importlib
import pkgutil

import pytest

import repro
from repro.errors import (
    AlgorithmError,
    BandwidthExceededError,
    CongestError,
    DisconnectedGraphError,
    GraphError,
    ProtocolError,
    ReproError,
    RoundLimitExceededError,
    TreeError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "child,parent",
        [
            (GraphError, ReproError),
            (DisconnectedGraphError, GraphError),
            (TreeError, ReproError),
            (CongestError, ReproError),
            (BandwidthExceededError, CongestError),
            (RoundLimitExceededError, CongestError),
            (ProtocolError, CongestError),
            (AlgorithmError, ReproError),
        ],
    )
    def test_subclassing(self, child, parent):
        assert issubclass(child, parent)

    def test_catch_all_via_base(self):
        with pytest.raises(ReproError):
            raise BandwidthExceededError("boom")

    def test_errors_are_not_each_other(self):
        assert not issubclass(GraphError, CongestError)
        assert not issubclass(TreeError, GraphError)


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize(
        "module,names",
        [
            ("repro.graphs", ["WeightedGraph", "RootedTree", "planted_cut_graph"]),
            ("repro.congest", ["CongestNetwork", "NodeProgram", "MessageTracer"]),
            ("repro.primitives", ["PipelinedKeyedSum", "build_bfs_tree"]),
            ("repro.fragments", ["partition_tree", "run_distributed_partition"]),
            ("repro.mst", ["minimum_spanning_tree", "boruvka_mst"]),
            ("repro.packing", ["GreedyTreePacking", "certified_cut_bounds"]),
            ("repro.sampling", ["sample_skeleton", "sampling_probability"]),
            (
                "repro.core",
                [
                    "one_respecting_min_cut_congest",
                    "one_respecting_min_cut_reference",
                    "two_respecting_min_cut_reference",
                ],
            ),
            (
                "repro.mincut",
                [
                    "minimum_cut_exact",
                    "minimum_cut_approx",
                    "minimum_cut_exact_congest_full",
                ],
            ),
            (
                "repro.baselines",
                [
                    "stoer_wagner_min_cut",
                    "gomory_hu_tree",
                    "su_minimum_cut_congest",
                ],
            ),
            ("repro.lowerbound", ["das_sarma_instance"]),
            ("repro.analysis", ["fit_power_law", "format_table", "write_report"]),
        ],
    )
    def test_subpackage_exports(self, module, names):
        import importlib

        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name} missing"
            assert name in mod.__all__

    @pytest.mark.parametrize(
        "name",
        [
            "CostProfile",
            "FittedModel",
            "DynamicCosts",
            "run_calibration",
            "resolve_cost_profile",
            "REPRO_COST_PROFILE_ENV",
        ],
    )
    def test_exec_has_no_fitted_cost_model(self, name):
        # The registry cost models are the only cost model.
        import repro.exec

        assert not hasattr(repro.exec, name)
        assert name not in repro.exec.__all__

    def test_calibrate_module_is_gone(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.exec.calibrate")

    def test_every_module_has_docstring(self):
        import importlib
        import pkgutil

        import repro as root

        for info in pkgutil.walk_packages(root.__path__, prefix="repro."):
            if info.name.endswith("__main__"):
                continue  # importing it runs the CLI
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"


#: ``repro`` and every package under it.
PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


def _modules_of(package: str) -> list:
    """``package`` and every module under it, imported."""
    root = importlib.import_module(package)
    return [root] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(root.__path__, prefix=package + ".")
        if not info.name.endswith("__main__")  # importing it runs the CLI
    ]


class TestLazyExports:
    """Every package resolves its ``__all__`` on first use; these catch
    drift between a package's export table and its submodules."""

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_is_its_definition(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        holders = _modules_of(package)
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            value = getattr(module, name)
            assert name in listed, f"{package}.{name} missing from dir()"
            home = getattr(value, "__module__", None)
            if hasattr(value, "__qualname__") and str(home).startswith("repro"):
                # a function or a class: its defining module holds it
                home = importlib.import_module(home)
                assert getattr(home, value.__qualname__) is value, f"{package}.{name}"
            else:  # a constant or an alias: a module under the package holds it
                assert any(
                    vars(holder).get(name) is value for holder in holders
                ), f"{package}.{name} is not the object its submodule holds"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_names_still_raise(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError):
            module.no_such_name
        assert not hasattr(module, "__no_such_dunder__")

    def test_submodules_resolve_as_attributes(self):
        import repro.graphs

        assert repro.graphs.generators is importlib.import_module(
            "repro.graphs.generators"
        )
        assert repro.mincut is importlib.import_module("repro.mincut")
