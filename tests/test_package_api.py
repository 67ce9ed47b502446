"""Tests for the top-level package facade and public API surface."""

import importlib
import inspect
import pathlib

import pytest

import repro


class TestLazyFacade:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_eager_exports(self):
        from repro import Bounds, run_parallel

        assert Bounds.cube(1.0).volume == 1.0
        assert run_parallel(1, lambda c: c.size) == [1]

    def test_lazy_tessellate(self):
        assert repro.tessellate is importlib.import_module("repro.core").tessellate
        assert repro.Tessellation is importlib.import_module(
            "repro.core"
        ).Tessellation

    def test_lazy_hacc(self):
        assert repro.HACCSimulation is importlib.import_module(
            "repro.hacc"
        ).HACCSimulation
        assert repro.SimulationConfig is importlib.import_module(
            "repro.hacc"
        ).SimulationConfig

    def test_lazy_insitu(self):
        assert repro.CosmologyToolsFramework is importlib.import_module(
            "repro.insitu"
        ).CosmologyToolsFramework

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.not_a_symbol


class TestPublicSurfaces:
    @pytest.mark.parametrize(
        "module",
        ["repro.diy", "repro.hacc", "repro.geometry", "repro.core",
         "repro.analysis", "repro.insitu"],
    )
    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert getattr(mod, name) is not None, f"{module}.{name}"

    def test_docstrings_on_public_callables(self):
        """Every public function/class carries a docstring."""
        for module in (
            "repro.diy", "repro.hacc", "repro.geometry", "repro.core",
            "repro.analysis", "repro.insitu",
        ):
            mod = importlib.import_module(module)
            for name in mod.__all__:
                obj = getattr(mod, name)
                if callable(obj):
                    assert obj.__doc__, f"{module}.{name} lacks a docstring"

    def test_no_geometry_backend_selector(self):
        """One local Voronoi engine: no tessellation entry point takes a
        geometry ``backend`` (nor an SPMD one: ranks are processes)."""
        core = importlib.import_module("repro.core")
        insitu = importlib.import_module("repro.insitu")
        for fn in (
            core.tessellate,
            core.tessellate_distributed,
            insitu.TessellationTool,
        ):
            assert "backend" not in inspect.signature(fn).parameters, fn

    def test_no_overlap_kernel_or_mesh_selector(self):
        """Tracking runs the one flat overlap kernel, and the engine always
        triangulates the points it is given."""
        analysis = importlib.import_module("repro.analysis")
        geometry = importlib.import_module("repro.geometry")
        insitu = importlib.import_module("repro.insitu")
        for fn in (
            analysis.FeatureTreeBuilder,
            analysis.track_components,
            insitu.TrackingTool,
        ):
            assert "kernel" not in inspect.signature(fn).parameters, fn
        assert "mesh" not in inspect.signature(geometry.DelaunayVoronoi).parameters

    def test_one_cell_representation(self):
        """The CSR ``VoronoiBlock`` is the only cell type: no per-cell
        record, no cell-list constructor or iterator, no subset copy."""
        core = importlib.import_module("repro.core")
        assert "VoronoiCell" not in core.__all__
        assert not hasattr(core, "VoronoiCell")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.cell")
        for name in ("from_cells", "cells", "take", "faces_of_cell",
                     "neighbors_of_cell"):
            assert not hasattr(core.VoronoiBlock, name), name
        assert not hasattr(core.Tessellation, "cells")
        empty = core.VoronoiBlock.empty(3, repro.Bounds.cube(1.0))
        assert (empty.gid, empty.num_cells, empty.num_faces) == (3, 0, 0)

    def test_no_mesh_assembly_in_situ(self):
        """In situ consumers read each rank's block where it lives: the
        handle cannot gather the mesh, and nothing counts assemblies."""
        core = importlib.import_module("repro.core")
        assert not hasattr(core.DistributedTessellation, "assemble")
        src = pathlib.Path(repro.__file__).parent
        for path in sorted(src.rglob("*.py")):
            assert "insitu.mesh_assemblies" not in path.read_text(), path
