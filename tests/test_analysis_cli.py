"""Tests for the analysis helpers and the command-line interface."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    PowerLawFit,
    crossover_point,
    fit_crossover_point,
    fit_power_law,
    geometric_mean,
    predicted_operations,
    speedup_table,
)
from repro.cli import main
from repro.exceptions import InvalidParameterError
from repro.store import FORMAT_VERSION


class TestFitPowerLaw:
    def test_recovers_exact_exponent(self):
        xs = [10, 20, 40, 80]
        ys = [3 * x**2 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(2.0)
        assert fit.coefficient == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(160) == pytest.approx(3 * 160**2)

    def test_noisy_data_still_close(self):
        xs = [16, 32, 64, 128, 256]
        ys = [x**1.5 * (1.1 if i % 2 else 0.9) for i, x in enumerate(xs)]
        fit = fit_power_law(xs, ys)
        assert 1.3 < fit.exponent < 1.7

    def test_requires_two_positive_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [2])
        with pytest.raises(ValueError):
            fit_power_law([1, 1], [2, 3])


class TestCostModels:
    def test_known_values(self):
        assert predicted_operations("bruteforce", 10, 20, 3) == 600
        assert predicted_operations("msrp", 100, 400, 4) == pytest.approx(
            400 * math.sqrt(400) + 4 * 100**2
        )

    def test_ssrp_is_msrp_with_one_source(self):
        assert predicted_operations("ssrp", 50, 120, 1) == pytest.approx(
            predicted_operations("msrp", 50, 120, 1)
        )

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            predicted_operations("quantum", 10, 10, 1)


class TestSpeedupAndCrossover:
    def test_speedup_table(self):
        table = speedup_table({"a": 2.0, "b": 4.0}, reference="a")
        assert table == {"a": 1.0, "b": 2.0}
        with pytest.raises(ValueError):
            speedup_table({"a": 1.0}, reference="zzz")

    def test_crossover_point(self):
        xs = [1, 2, 3, 4]
        first = [10, 6, 2, 1]
        second = [4, 4, 4, 4]
        x = crossover_point(xs, first, second)
        assert 2 < x <= 3

    def test_no_crossover(self):
        assert crossover_point([1, 2], [5, 6], [1, 1]) is math.inf

    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)
        assert geometric_mean([]) == 0.0


class TestDegenerateInputsRaiseTyped:
    """Degenerate inputs raise :class:`InvalidParameterError` — typed (a
    ``ReproError``) while still a ``ValueError`` for historical callers."""

    def test_fit_power_law_too_few_points(self):
        with pytest.raises(InvalidParameterError):
            fit_power_law([], [])
        with pytest.raises(InvalidParameterError):
            fit_power_law([1], [2])

    def test_fit_power_law_non_positive_samples(self):
        # Every sample is dropped by the log-log filter -> degenerate.
        with pytest.raises(InvalidParameterError):
            fit_power_law([-1, 0, 2], [3, 4, -5])

    def test_fit_power_law_identical_x(self):
        with pytest.raises(InvalidParameterError):
            fit_power_law([7, 7, 7], [1, 2, 3])

    def test_speedup_table_typed(self):
        with pytest.raises(InvalidParameterError):
            speedup_table({"a": 1.0}, reference="zzz")
        with pytest.raises(InvalidParameterError):
            speedup_table({"a": 0.0}, reference="a")

    def test_unknown_model_typed(self):
        with pytest.raises(InvalidParameterError):
            predicted_operations("quantum", 10, 10, 1)

    def test_crossover_point_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            crossover_point([1, 2], [1, 2, 3], [1, 2])

    def test_crossover_point_too_few_samples(self):
        with pytest.raises(InvalidParameterError):
            crossover_point([1], [1], [2])

    def test_crossover_point_coinciding_series(self):
        with pytest.raises(InvalidParameterError):
            crossover_point([1, 2, 3], [4, 5, 6], [4, 5, 6])

    def test_fit_crossover_point_exact(self):
        first = PowerLawFit(exponent=2.0, coefficient=1.0, r_squared=1.0)
        second = PowerLawFit(exponent=1.0, coefficient=8.0, r_squared=1.0)
        x = fit_crossover_point(first, second)
        assert x == pytest.approx(8.0)
        assert first.predict(x) == pytest.approx(second.predict(x))

    def test_fit_crossover_point_parallel_fits(self):
        first = PowerLawFit(exponent=1.5, coefficient=1.0, r_squared=1.0)
        second = PowerLawFit(exponent=1.5, coefficient=2.0, r_squared=1.0)
        with pytest.raises(InvalidParameterError):
            fit_crossover_point(first, second)

    def test_fit_crossover_point_non_positive_coefficient(self):
        first = PowerLawFit(exponent=2.0, coefficient=0.0, r_squared=1.0)
        second = PowerLawFit(exponent=1.0, coefficient=2.0, r_squared=1.0)
        with pytest.raises(InvalidParameterError):
            fit_crossover_point(first, second)


class TestCLI:
    def test_ssrp_command(self, capsys):
        assert main(["ssrp", "--n", "30", "--extra-edges", "40", "--seed", "1", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verification against brute force: PASSED" in out

    def test_msrp_command(self, capsys):
        assert main(["msrp", "--n", "30", "--sigma", "3", "--extra-edges", "50", "--seed", "2"]) == 0
        assert "output entries" in capsys.readouterr().out

    def test_bmm_command(self, capsys):
        assert main(["bmm", "--size", "8", "--density", "0.3", "--seed", "3"]) == 0
        assert "matches naive product: yes" in capsys.readouterr().out


class TestCLIVerifyFailure:
    """Regression: a failing ``--verify`` must exit 1 cleanly, not traceback.

    The module docstring promises "exits with a non-zero status if the
    optional self-verification against brute force fails"; before the fix
    the :class:`~repro.exceptions.InternalInvariantError` escaped
    ``main()`` as an unhandled traceback.  The brute-force oracle is
    monkeypatched to disagree so the mismatch path is deterministic.
    """

    def test_forced_mismatch_exits_one_with_summary(self, capsys, monkeypatch):
        import repro.rp.bruteforce as bruteforce

        def wrong_oracle(graph, sources, workers=0, pool=None):
            # An empty reference disagrees with every computed entry.
            return {int(s): {} for s in sources}

        monkeypatch.setattr(bruteforce, "brute_force_multi_source", wrong_oracle)
        code = main(
            ["msrp", "--n", "16", "--sigma", "2", "--extra-edges", "14",
             "--seed", "4", "--verify"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "disagrees with brute force" in captured.err
        assert "PASSED" not in captured.out

    def test_honest_verify_still_passes(self, capsys):
        assert (
            main(["msrp", "--n", "16", "--sigma", "2", "--extra-edges", "14",
                  "--seed", "4", "--verify"])
            == 0
        )
        assert "PASSED" in capsys.readouterr().out


class TestCLILifecycle:
    """``preprocess -> serve -> query/status`` driven through the CLI."""

    def test_preprocess_writes_loadable_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code = main(
            ["preprocess", "--n", "20", "--extra-edges", "24", "--sigma", "2",
             "--seed", "7", "--strategy", "auxiliary", "--store", store]
        )
        assert code == 0
        assert "store written to" in capsys.readouterr().out

        from repro.store import load_store

        result, header = load_store(store)
        assert header.meta["strategy"] == "auxiliary"
        assert result.output_size > 0

    def test_query_and_status_against_served_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert (
            main(["preprocess", "--n", "20", "--extra-edges", "24", "--sigma",
                  "2", "--seed", "7", "--store", store])
            == 0
        )
        capsys.readouterr()  # drop preprocess output

        from repro.serve import ServerThread
        from repro.store import load_store

        result, _ = load_store(store)
        s, t, e, value = next(result.iter_entries())
        with ServerThread.from_store(store) as handle:
            port = str(handle.port)
            assert main(["status", "--port", port]) == 0
            out = capsys.readouterr().out
            assert "hit rate" in out and f"format v{FORMAT_VERSION}" in out
            assert (
                main(["query", "--port", port, "--source", str(s),
                      "--target", str(t), "--edge", f"{e[0]},{e[1]}"])
                == 0
            )
            assert f"= {value:g}" in capsys.readouterr().out

    def test_query_against_dead_server_exits_one(self, capsys):
        code = main(
            ["query", "--port", "1", "--source", "0", "--target", "1",
             "--edge", "0,1"]
        )
        assert code == 1
        assert "unreachable" in capsys.readouterr().err

    def test_malformed_edge_argument_exits_one(self, capsys):
        code = main(
            ["query", "--port", "1", "--source", "0", "--target", "1",
             "--edge", "nonsense"]
        )
        assert code == 1
        assert "--edge" in capsys.readouterr().err
