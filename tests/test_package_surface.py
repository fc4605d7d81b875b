"""Public API surface tests: exports, error hierarchy, version."""

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
