"""Tests for the experiment harness (small scales for speed)."""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    TABLE1,
    TABLE2,
    TABLE3,
    TABLE4,
    ShapeViolation,
    check_figure3_shape,
    check_scalability_shape,
    check_table4_shape,
    format_table,
    paper_speedup,
    run_experiment,
    table1,
    table2,
    table4,
    figure3,
)
from repro.experiments.tables import ExperimentResult


class TestPaperData:
    def test_tables_transcribed(self):
        assert TABLE1[2][0] == 89.27
        assert TABLE1[20] == (45.99, 0.14, 1.84, 0.06)
        assert TABLE2[4][0] == 1496.28
        assert TABLE3[("cage12", "cluster3")][0] == "nem"
        assert TABLE4[10] == (22600.0, 99.35, 44.13)

    def test_paper_speedup(self):
        assert paper_speedup(TABLE1, 20) == pytest.approx(45.99 / 0.14)
        with pytest.raises(ValueError):
            paper_speedup(TABLE1, 1)  # no multisplitting entry

    def test_paper_async_beats_sync_under_perturbation(self):
        for k in (1, 5, 10):
            _, sync, asyn = TABLE4[k]
            assert asyn < sync


class TestRunners:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {"table1", "table2", "table3", "table4", "figure3"}

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("table9")

    def test_table1_small(self):
        r = table1(scale=0.25, procs_list=[1, 2, 4])
        assert [row["processors"] for row in r.rows] == [1, 2, 4]
        assert r.rows[0]["sync multisplitting-LU"] is None  # paper leaves blank
        row4 = r.rows[-1]
        assert isinstance(row4["distributed SuperLU"], float)
        assert isinstance(row4["sync multisplitting-LU"], float)
        assert row4["residual sync"] < 1e-7
        # multisplitting far faster than the baseline, as in the paper
        assert row4["distributed SuperLU"] > 2 * row4["sync multisplitting-LU"]

    def test_table2_memory_wall_below_four_processors(self):
        """The paper: cage11 "requires too much memory to be solved with
        less than 4 processors" -- by distributed SuperLU, while
        multisplitting, which factors one band per host, runs.  The
        wall needs the full-size analog (the golden replays start at 4
        processors)."""
        r = table2(scale=1.0, procs_list=[3, 4])
        three, four = r.rows
        assert three["distributed SuperLU"] == "nem"
        assert isinstance(three["sync multisplitting-LU"], float)
        assert isinstance(three["async multisplitting-LU"], float)
        assert isinstance(four["distributed SuperLU"], float)

    def test_table4_small_shape(self):
        r = table4(scale=0.2, perturbations=[0, 5])
        check_table4_shape(r)
        t0 = r.rows[0]
        t5 = r.rows[1]
        assert t5["sync multisplitting-LU"] > t0["sync multisplitting-LU"]

    def test_figure3_small_shape(self):
        r = figure3(scale=0.2, overlaps=[0, 8, 20, 40])
        check_figure3_shape(r)
        iters = [row["sync iterations"] for row in r.rows]
        assert iters == sorted(iters, reverse=True)  # monotone fall
        assert all(row["residual sync"] < 1e-6 for row in r.rows)


class TestReport:
    def _dummy(self):
        return ExperimentResult(
            experiment="dummy",
            columns=["processors", "distributed SuperLU", "sync multisplitting-LU", "factorization time"],
            rows=[
                {"processors": 2, "distributed SuperLU": 100.0, "sync multisplitting-LU": 5.0, "factorization time": 4.0},
                {"processors": 4, "distributed SuperLU": 50.0, "sync multisplitting-LU": 2.0, "factorization time": 1.5},
                {"processors": 8, "distributed SuperLU": 40.0, "sync multisplitting-LU": 1.0, "factorization time": 0.5},
            ],
        )

    def test_format_table_renders(self):
        text = format_table(self._dummy(), title="Table X")
        assert "Table X" in text
        assert "processors" in text
        assert "100" in text

    def test_format_handles_nem_and_none(self):
        res = self._dummy()
        res.rows[0]["distributed SuperLU"] = "nem"
        res.rows[1]["sync multisplitting-LU"] = None
        text = format_table(res)
        assert "nem" in text
        assert "-" in text

    def test_scalability_check_passes(self):
        check_scalability_shape(self._dummy())

    def test_scalability_check_catches_slow_multisplitting(self):
        res = self._dummy()
        res.rows[0]["sync multisplitting-LU"] = 90.0
        with pytest.raises(ShapeViolation):
            check_scalability_shape(res)

    def test_scalability_check_catches_non_scaling(self):
        res = self._dummy()
        for row in res.rows:
            row["sync multisplitting-LU"] = 5.0
            row["factorization time"] = 1.0
        with pytest.raises(ShapeViolation):
            check_scalability_shape(res)


class TestCli:
    def test_cli_runs_table4(self, capsys):
        from repro.experiments.cli import main

        status = main(["table4", "--scale", "0.15"])
        out = capsys.readouterr().out
        assert status == 0
        assert "Table 4" in out

    def test_cli_rejects_unknown(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["table7"])

    def test_cli_has_no_elastic_flag(self):
        """The replays run the simulated modes, which have no fleet to
        re-plan: ``--elastic`` is an unknown option."""
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["table4", "--elastic"])
        assert exc.value.code == 2
