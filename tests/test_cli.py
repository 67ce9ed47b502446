"""Tests for the command-line interfaces."""

import json
import os

import numpy as np
import pytest

from repro.cli import sim_main, tess_main

from .clustered import clustered_points


class TestTessCLI:
    def test_random_points_run(self, capsys):
        rc = tess_main(["--random", "300", "--box", "8", "--blocks", "2",
                        "--ghost", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cells kept:    300" in out
        assert "total volume:  512" in out

    def test_npy_input_and_output(self, tmp_path, capsys):
        pts = np.random.default_rng(0).uniform(0, 6, size=(200, 3))
        npy = tmp_path / "pts.npy"
        np.save(npy, pts)
        out_file = tmp_path / "out.tess"
        rc = tess_main([str(npy), "--box", "6", "--ghost", "2.5",
                        "-o", str(out_file)])
        assert rc == 0
        assert out_file.exists()
        from repro.core import read_tessellation

        assert read_tessellation(str(out_file)).num_cells == 200

    def test_requires_exactly_one_source(self, capsys):
        assert tess_main([]) == 2
        npy_and_random = ["somefile.npy", "--random", "10"]
        assert tess_main(npy_and_random) == 2

    def test_bad_npy_shape(self, tmp_path):
        npy = tmp_path / "bad.npy"
        np.save(npy, np.zeros((10, 2)))
        assert tess_main([str(npy)]) == 2

    def test_more_ranks_than_blocks_is_a_usage_error(self, capsys):
        rc = tess_main(["--random", "100", "--blocks", "2", "--ranks", "4"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: nranks must be between 1 and nblocks=2, got 4\n"
        assert "Traceback" not in captured.err and captured.out == ""

    def test_vmin_culling(self, capsys):
        rc = tess_main(["--random", "400", "--box", "8", "--vmin", "1.5",
                        "--ghost", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        kept = int(out.split("cells kept:")[1].split()[0])
        assert 0 < kept < 400

    def test_nonperiodic_flag(self, capsys):
        rc = tess_main(["--random", "300", "--box", "8", "--no-periodic",
                        "--ghost", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        kept = int(out.split("cells kept:")[1].split()[0])
        assert kept < 300  # boundary cells deleted

    def test_clustered_input_tiles_the_box(self, tmp_path, capsys):
        pts = clustered_points(600, 8.0, seed=14)
        npy = tmp_path / "clustered.npy"
        np.save(npy, pts)
        rc = tess_main([str(npy), "--box", "8", "--blocks", "4",
                        "--ghost", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cells kept:    600" in out
        assert "total volume:  512" in out

    def test_voids_flag(self, capsys):
        rc = tess_main(["--random", "400", "--box", "8", "--ghost", "3",
                        "--voids"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "voids:" in out
        nvoids = int(out.split("voids:")[1].split()[0])
        assert nvoids >= 1


class TestSimCLI:
    def _deck(self, tmp_path, tools, sim=None):
        deck = {"simulation": sim or {"np_side": 8, "nsteps": 4},
                "tools": tools}
        path = tmp_path / "deck.json"
        path.write_text(json.dumps(deck))
        return str(path)

    def test_full_run(self, tmp_path, capsys):
        deck = self._deck(
            tmp_path,
            [{"tool": "tessellation", "params": {"ghost": 3.5}},
             {"tool": "void_finder", "params": {"min_cells": 2}}],
        )
        rc = sim_main([deck, "--ranks", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[tessellation @ step 4] 512 cells" in out
        assert "voids at vmin=" in out

    def test_empty_tools_rejected(self, tmp_path):
        deck = self._deck(tmp_path, [])
        assert sim_main([deck]) == 2

    def test_unknown_simulation_key(self, tmp_path):
        deck = self._deck(
            tmp_path,
            [{"tool": "statistics"}],
            sim={"np_side": 8, "nsteps": 2, "warp_factor": 9},
        )
        assert sim_main([deck]) == 2

    def test_statistics_description(self, tmp_path, capsys):
        deck = self._deck(tmp_path, [{"tool": "statistics"}])
        rc = sim_main([deck])
        assert rc == 0
        assert "histogram n=" in capsys.readouterr().out

    def test_kill_and_resume_cycle(self, tmp_path, capsys):
        """--fault-kill crashes the run after its checkpoints are on disk;
        --resume finishes it, skipping the already-analyzed steps."""
        deck = self._deck(
            tmp_path,
            [{"tool": "statistics", "every": 2}],
            sim={"np_side": 8, "nsteps": 6, "seed": 7},
        )
        ckpt = str(tmp_path / "ckpts")
        common = [deck, "--ranks", "2", "--checkpoint-every", "2",
                  "--checkpoint-dir", ckpt]
        rc = sim_main(common + ["--fault-kill", "1:5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "rank 1" in err and "--resume" in err
        assert sorted(os.listdir(ckpt)) == [
            "ckpt-000002.ckpt", "ckpt-000004.ckpt"
        ]
        rc = sim_main(common + ["--resume"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint at step 4" in out
        # Steps 2 and 4 were analyzed before the crash; only 6 re-fires.
        assert "@ step 6" in out and "@ step 4" not in out

    def test_bad_fault_kill_spec(self, tmp_path):
        deck = self._deck(tmp_path, [{"tool": "statistics"}])
        assert sim_main([deck, "--fault-kill", "nonsense"]) == 2

    @pytest.mark.parametrize("spec,names", [
        ("2:3", "rank 2"),   # --ranks 2: only ranks 0 and 1 exist
        ("-1:3", "rank -1"),
        ("1:5", "step 5"),   # the deck has 4 steps
        ("0:0", "step 0"),   # steps are 1-based
    ])
    def test_fault_kill_out_of_range_is_a_usage_error(
        self, tmp_path, capsys, spec, names
    ):
        """A kill that can never fire would let a fault drill pass
        vacuously: reject it up front with one error line."""
        deck = self._deck(tmp_path, [{"tool": "statistics"}])
        assert sim_main([deck, "--ranks", "2", f"--fault-kill={spec}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --fault-kill ")
        assert names in captured.err and captured.err.count("\n") == 1

    def test_fault_seed_flag_is_gone(self, tmp_path):
        deck = self._deck(tmp_path, [{"tool": "statistics"}])
        with pytest.raises(SystemExit):
            sim_main([deck, "--fault-seed", "1"])


def _deck_text(sim=None, tools=({"tool": "statistics"},)):
    return json.dumps(
        {"simulation": sim or {"np_side": 8, "nsteps": 2}, "tools": list(tools)}
    )


@pytest.mark.parametrize(
    "main, content, flags, message",
    [
        (sim_main, None, [], "cannot read deck"),
        (sim_main, "{not json", [], "is not valid JSON"),
        (sim_main, "[1, 2]", [], "must be a JSON object, got list"),
        (sim_main, _deck_text({"np_side": 1}), [], "np_side must be >= 2"),
        (sim_main, _deck_text({"np_side": "8"}), [], "np_side must be int"),
        (sim_main, _deck_text({"np_side": 8, "balance_threshold": 1.1}), [],
         "unknown simulation keys ['balance_threshold']"),
        (sim_main, _deck_text(tools=[{"tool": "warp_drive"}]), [],
         "unknown tool 'warp_drive'"),
        (sim_main, _deck_text(), ["--ranks", "0"], "--ranks must be positive"),
        (sim_main, _deck_text(), ["--checkpoint-every", "-1"],
         "--checkpoint-every must be >= 0"),
        (tess_main, None, [], "cannot read"),
        (tess_main, "0 0 0\n", [], "is not a .npy array"),
    ],
    ids=[
        "sim-missing-deck", "sim-malformed-json", "sim-deck-not-an-object",
        "sim-np_side-out-of-range", "sim-np_side-mistyped",
        "sim-balance_threshold-key", "sim-unknown-tool", "sim-ranks-0",
        "sim-checkpoint-every-negative", "tess-missing-points",
        "tess-points-not-npy",
    ],
)
def test_cli_rejects_bad_input_with_one_error_line(
    tmp_path, capsys, main, content, flags, message
):
    """Bad input is a usage error: one ``error:`` line saying what is
    wrong, exit code 2, and no rank started."""
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    rc = main([str(path), *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1, captured.err
    assert captured.out == ""
