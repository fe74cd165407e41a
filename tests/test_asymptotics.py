"""Limit constants f_k and the three asymptotic experiments."""

import dataclasses

import numpy as np
import pytest

import predictorlab as pl
from predictorlab import (OracleDisagreementError, RegimeError, TruncationError,
                          TruncationPolicy, asymptotics, cli, f_u, fk0, semigroup_integral)
from predictorlab.asymptotics import CROSS_CHECK_TOL, check_routes


class TestFk0:
    def test_frozen_leading_constants(self):
        want = np.array([1.0 / np.pi,
                         1.0 / np.pi ** 2,
                         1.0 / (6.0 * np.pi),
                         1.0 / (3.0 * np.pi ** 2),
                         3.0 / (40.0 * np.pi)])
        np.testing.assert_allclose(fk0(5), want, rtol=1e-14)

    def test_prefix_stability(self):
        np.testing.assert_array_equal(fk0(9)[:5], fk0(5))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            fk0(0)

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.8])
    def test_odd_series_sums_to_arcsin(self, x):
        # sum over odd k of f_k(0) x^k = arcsin(x)/pi; consecutive terms
        # shrink by less than x^2, so the tail is below next/(1 - x^2);
        # a machine-epsilon floor covers summation roundoff when the
        # analytic tail drops below double precision
        K = 61
        f = fk0(K + 2)
        ks = np.arange(1, K + 1, 2)
        partial = float(np.sum(f[ks - 1] * x ** ks))
        tail_bound = f[K + 1] * x ** (K + 2) / (1.0 - x * x)
        assert abs(partial - np.arcsin(x) / np.pi) <= tail_bound + 5e-15

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.8])
    def test_even_series_sums_to_arcsin_squared(self, x):
        K = 60
        f = fk0(K + 2)
        ks = np.arange(2, K + 1, 2)
        partial = float(np.sum(f[ks - 1] * x ** ks))
        tail_bound = f[K + 1] * x ** (K + 2) / (1.0 - x * x)
        assert abs(partial - (np.arcsin(x) / np.pi) ** 2) <= tail_bound + 5e-15


class TestFu:
    def test_closed_forms(self):
        assert f_u(1, 0.0) == pytest.approx(1.0 / np.pi, rel=1e-14)
        assert f_u(1, 1.0) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)
        assert f_u(2, 0.0) == pytest.approx(1.0 / np.pi ** 2, rel=1e-14)
        assert f_u(2, 1.0) == pytest.approx(np.log(2.0) / np.pi ** 2, rel=1e-14)

    def test_quadrature_levels_match_origin_constants(self):
        assert f_u(3, 0.0) == pytest.approx(1.0 / (6.0 * np.pi), rel=1e-8)
        assert f_u(4, 0.0) == pytest.approx(1.0 / (3.0 * np.pi ** 2), rel=1e-8)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            f_u(5, 0.0)

    @pytest.mark.parametrize("i,j", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
    def test_semigroup_composition(self, i, j):
        # int f_i f_j over the half line reproduces f_{i+j}(0)
        assert semigroup_integral(i, j) == pytest.approx(fk0(i + j)[i + j - 1],
                                                         abs=1e-6)


class TestRateExperiment:
    def test_short_memory_rejected(self):
        with pytest.raises(RegimeError):
            pl.rate_experiment(pl.Ar1(0.5), 1, [16, 32])

    def test_bad_j(self):
        with pytest.raises(ValueError):
            pl.rate_experiment(pl.Farima(0.3), 0, [16, 32])
        with pytest.raises(ValueError):
            pl.rate_experiment(pl.Farima(0.3), 64, [16, 32])

    def test_limit_and_extrapolation(self):
        # for the pure fractional model the predictor weights sum to one,
        # so the j = 1 limit d^2 sum_{u>=1} phi_u equals d^2
        d = 0.3
        report = pl.rate_experiment(pl.Farima(d), 1, [64, 128, 256])
        assert report.theoretical_limit == pytest.approx(d * d, abs=1e-6)
        assert abs(report.extrapolated - report.theoretical_limit) \
            / report.theoretical_limit < 0.05
        ns = [e[0] for e in report.entries]
        assert ns == [64, 128, 256]

    def test_extrapolation_at_non_doubling_n(self):
        # the 1/n elimination at the ratio actually run; assuming a doubling
        # pair puts 64, 96 at 0.09014
        report = pl.rate_experiment(pl.Farima(0.3), 1, [64, 96])
        assert report.extrapolated == pytest.approx(0.09, abs=1e-5)

    def test_repeated_n_count_once(self):
        once = pl.rate_experiment(pl.Farima(0.3), 1, [64, 128])
        twice = pl.rate_experiment(pl.Farima(0.3), 1, [128, 64, 128])
        assert [e[0] for e in twice.entries] == [64, 128]
        assert twice.extrapolated == once.extrapolated
        r64, r128 = (e[2] for e in once.entries)
        assert once.extrapolated == 2.0 * r128 - r64

    @pytest.mark.parametrize("model, j, limit", [
        (pl.Farima(0.3, ar_poly=(1.0, 0.6)), 1, 0.09),
        (pl.Farima(0.3, ma_poly=(1.0, 0.7)), 1, 0.09),
        # phi_1 = d + 0.7 = 1, so the j = 2 limit d^2 (1 - phi_1) is 0
        (pl.Farima(0.3, ma_poly=(1.0, 0.7)), 2, 0.0),
    ], ids=["ar0.6-j1", "ma0.7-j1", "ma0.7-j2"])
    def test_factored_limit_is_signed(self, model, j, limit):
        # the limit d^2 sum_{u>=j} phi_u sums signed weights, which add to one;
        # absolute tolerances, since the last limit is 0
        report = pl.rate_experiment(model, j, [128, 256, 512])
        assert report.theoretical_limit == pytest.approx(limit, abs=1e-15)
        assert report.extrapolated == pytest.approx(limit, abs=1e-5)

    def test_moment_form_sweep_builds_no_ladder_beta(self, monkeypatch):
        # the explicit route of pure fractional noise reads no beta, so the
        # sweep must build none
        def no_beta(*args):
            raise AssertionError("the moment form needs no shared beta")
        monkeypatch.setattr("predictorlab.explicit.beta_for_model", no_beta)
        report = pl.rate_experiment(pl.Farima(0.3), 1, [64, 128])
        assert [e[0] for e in report.entries] == [64, 128]

    def test_rate_values_close_in_by_doubling(self):
        report = pl.rate_experiment(pl.Farima(0.3), 1, [64, 128, 256])
        rates = [e[2] for e in report.entries]
        d1 = abs(rates[1] - rates[0])
        d2 = abs(rates[2] - rates[1])
        assert d1 / d2 > 1.5


class TestBaxterExperiment:
    def test_short_memory_rejected(self):
        with pytest.raises(RegimeError):
            pl.baxter_experiment(pl.Ar1(0.5), [16, 32])

    def test_ratio_bounded_and_stable(self):
        report = pl.baxter_experiment(pl.Farima(0.3), [16, 32, 64])
        assert 0.1 < report.sup_ratio < 0.5
        for n, lhs, rhs, ratio in report.entries:
            assert lhs > 0.0 and rhs > 0.0
            assert ratio == pytest.approx(lhs / rhs, rel=1e-12)
        # both sides decay like n^{-d}
        assert report.entries[-1][1] < report.entries[0][1]
        assert report.entries[-1][2] < report.entries[0][2]

    def test_sweep_past_tail_length(self, monkeypatch):
        # phi_inf reaches past the largest n however short its default
        # length; the finite sums are the same, and the extrapolated tail
        # sums close
        full = pl.baxter_experiment(pl.Farima(0.3), [128, 512])
        monkeypatch.setattr(asymptotics, "_PHI_TAIL_LEN", 256)
        short = pl.baxter_experiment(pl.Farima(0.3), [128, 512])
        for (n, lhs, rhs, _), want in zip(short.entries, full.entries):
            assert (n, lhs) == want[:2]
            assert rhs == pytest.approx(want[2], rel=1e-3)

    def test_strong_memory_ratio_grows(self):
        # an MA-factored model near d = 1/2 meets the default residual
        # budget on the quadrature, and its ratio is above the milder one's
        strong = pl.baxter_experiment(pl.Farima(0.45, ma_poly=(1.0, 0.5)), [8, 16, 32, 64])
        mild = pl.baxter_experiment(pl.Farima(0.3, ma_poly=(1.0, 0.5)), [8, 16, 32, 64])
        assert np.isfinite(strong.sup_ratio)
        assert strong.sup_ratio > mild.sup_ratio


class TestDkScalingExperiment:
    def test_matches_targets(self):
        report = pl.dk_scaling_experiment(pl.Farima(0.3), [1, 2], 0, [512])
        assert report.u == 0
        assert len(report.entries) == 2
        for k, n, val, target in report.entries:
            assert n == 512
            assert abs(val - target) / target < 0.01

    def test_tail_over_tol_raises(self):
        # the quadrature's residual for an MA-factored model at n = 512 is
        # above 1e-12
        with pytest.raises(TruncationError) as err:
            pl.dk_scaling_experiment(pl.Farima(0.3, ma_poly=(1.0, 0.5)), [1, 2, 3], 0, [512],
                                     TruncationPolicy(tol_tail=1e-12))
        assert err.value.required == 1e-12
        assert err.value.achieved > err.value.required

    def test_quadrature_gate_names_no_ladder_control(self):
        # fractional noise's d_k come from the quadrature, whose residual no
        # V or K can reduce
        with pytest.raises(TruncationError, match="quadrature") as info:
            pl.dk_scaling_experiment(pl.Farima(0.3), [1, 2], 0, [64],
                                     TruncationPolicy(tol_tail=1e-14))
        assert "increase" not in str(info.value)

    @pytest.mark.parametrize("u", [0, 5, 32 * 512 - 1])
    def test_window_on_the_nodes(self, u):
        # on the nodes the experiment reads d_k on the window up to u alone;
        # each row is n d_k(n, u) of the default d_vectors within its tail
        # estimate
        model, n = pl.Farima(0.3), 512
        dv = pl.d_vectors(model, n)
        report = pl.dk_scaling_experiment(model, [1, 2, 3], u, [n])
        assert [e[0] for e in report.entries] == [1, 2, 3]
        for k, _, n_dk, _ in report.entries:
            assert abs(n_dk - n * dv.vectors[k - 1][u]) <= n * dv.tail_estimate

    def test_row_for_every_k_requested(self):
        # each stage is an output, not a term of a sum: d_4 and d_5 at
        # d = 0.001 are far below the series' stopping tolerance, and still
        # tabulated, near their limits
        report = pl.dk_scaling_experiment(pl.Farima(0.001), [5, 1, 2, 3, 4], 0, [512, 2048])
        assert [e[:2] for e in report.entries] == [(k, n) for k in range(1, 6)
                                                   for n in (512, 2048)]
        for _, _, n_dk, target in report.entries:
            assert n_dk == pytest.approx(target, rel=2e-3)

    def test_underflow_raises_naming_k(self):
        # d_70 at d = 1e-6 is about (pi 1e-6)^70: below the smallest normal double
        with pytest.raises(ValueError, match=r"^d_70\(n = 512, u = 0\) underflows"):
            pl.dk_scaling_experiment(pl.Farima(1e-6), [1, 70], 0, [512])

    def test_validation(self):
        model = pl.Farima(0.3)
        with pytest.raises(ValueError):
            pl.dk_scaling_experiment(model, [1], -1, [64])
        with pytest.raises(ValueError):
            pl.dk_scaling_experiment(model, [0], 0, [64])
        with pytest.raises(RegimeError):
            pl.dk_scaling_experiment(pl.Ar1(0.5), [1], 0, [64])
        with pytest.raises(ValueError):
            pl.dk_scaling_experiment(model, [1], 100,
                                     [64], TruncationPolicy(V=64))
        # u = 32 n is past the default window, pure or factored, so the
        # window on the nodes never grows past it
        for m in (model, pl.Farima(0.3, ma_poly=(1.0, 0.5))):
            with pytest.raises(ValueError, match="outside the d_k window"):
                pl.dk_scaling_experiment(m, [1], 32 * 512, [512])

    def test_refuses_before_building_beta(self, monkeypatch):
        # a window past the default one raises before any beta is built
        def no_beta(*args):
            raise AssertionError("a refused request must build no beta")
        monkeypatch.setattr("predictorlab.explicit.beta_for_model", no_beta)
        with pytest.raises(ValueError, match="outside the d_k window"):
            pl.dk_scaling_experiment(pl.Farima(0.3, ma_poly=(1.0, 0.5)), [1], 16384, [512])


class TestCrossChecking:
    def test_route_disagreement_raises(self, monkeypatch):
        real = pl.multistep_normal_solve

        def corrupted(gamma, n, m):
            table = real(gamma, n, m)
            return dataclasses.replace(table, coefficients=table.coefficients + 0.01)

        monkeypatch.setattr("predictorlab.asymptotics.multistep_normal_solve",
                            corrupted)
        with pytest.raises(OracleDisagreementError):
            pl.rate_experiment(pl.Farima(0.3), 1, [8, 16])

    @staticmethod
    def _widened():
        """A result whose residual, 1e-6, is above CROSS_CHECK_TOL / 8: no
        model's default run reports one, so it is built by hand."""
        table = pl.PredictorTable(n=4, horizon=0, coefficients=np.array([0.5, 0.1, 0.0, 0.0]),
                                  source=pl.PredictorSource.EXPLICIT_SERIES)
        series = tuple(pl.SeriesTerms(tail_estimate=1e-6, k_used=0,
                                      _matrix=lambda: np.zeros((1, 4)), _j=j)
                       for j in range(4))
        return pl.ExplicitPredictor(table=table, series=series)

    @pytest.mark.parametrize("case", ["ar1", "widened"])
    def test_check_routes_tolerance(self, case):
        # max(CROSS_CHECK_TOL, 8 x the largest residual estimate): the floor
        # for the exact AR(1) kernel, the widened tolerance for a residual
        # above an eighth of the floor
        res = (pl.finite_predictor_explicit(pl.Ar1(0.5), 4) if case == "ar1"
               else self._widened())
        tol = max(CROSS_CHECK_TOL, 8.0 * max(s.tail_estimate for s in res.series))
        phi = res.table.coefficients
        assert check_routes(res, phi) == 0.0
        assert check_routes(res, phi - 0.5 * tol) == pytest.approx(0.5 * tol)
        with pytest.raises(OracleDisagreementError) as err:
            check_routes(res, phi + 2.0 * tol)
        assert err.value.tol == tol
        assert err.value.max_diff == pytest.approx(2.0 * tol)


class TestSweepStore:
    """rate and baxter keep one model's cross-checked weights per process."""

    @staticmethod
    def _count(monkeypatch):
        """Wrap the sweep's explicit and Levinson routes; return the n each
        is called at."""
        calls = {"explicit": [], "levinson": []}
        explicit, solve = asymptotics.finite_predictor_explicit, asymptotics.multistep_normal_solve

        def counted_explicit(model, n, policy):
            calls["explicit"].append(n)
            return explicit(model, n, policy)

        def counted_solve(gamma, n, m):
            calls["levinson"].append(n)
            return solve(gamma, n, m)
        monkeypatch.setattr(asymptotics, "finite_predictor_explicit", counted_explicit)
        monkeypatch.setattr(asymptotics, "multistep_normal_solve", counted_solve)
        return calls

    @staticmethod
    def _sweep(model):
        return [pl.rate_experiment(model, 1, [16, 32]),
                pl.rate_experiment(model, 2, [16, 32]),
                pl.baxter_experiment(model, [8, 16, 32])]

    @staticmethod
    def _empty():
        asymptotics._checked_store.cache_clear()

    def test_each_n_solved_once(self, monkeypatch):
        calls = self._count(monkeypatch)
        self._sweep(pl.Farima(0.3))
        assert calls == {"explicit": [16, 32, 8], "levinson": [16, 32, 8]}

    def test_rate_reads_j_terms_of_phi_inf(self, monkeypatch):
        # the rate's phi_j and limit need only phi_1..phi_j, which it reads
        # off the cached expansion
        asked, real = [], asymptotics.expand_ar

        def counted(model, N):
            asked.append(N)
            return real(model, N)
        monkeypatch.setattr(asymptotics, "expand_ar", counted)
        for j in (1, 2):
            pl.rate_experiment(pl.Farima(0.3), j, [16, 32])
        assert asked and max(asked) <= 2

    def test_reports_equal_cold_store_reports(self):
        warm = self._sweep(pl.Farima(0.3))
        cold = []
        for make in (lambda m: pl.rate_experiment(m, 1, [16, 32]),
                     lambda m: pl.rate_experiment(m, 2, [16, 32]),
                     lambda m: pl.baxter_experiment(m, [8, 16, 32])):
            self._empty()
            cold.append(make(pl.Farima(0.3)))
        # repr prints every float to round trip: equal strings, equal bits
        assert [repr(dataclasses.astuple(r)) for r in warm] \
            == [repr(dataclasses.astuple(r)) for r in cold]

    @pytest.mark.parametrize("model, policy", [
        (pl.Farima(0.3), TruncationPolicy(tol_tail=1e-5)),
        (pl.Farima(0.3, ar_poly=(1.0, -0.5)), TruncationPolicy()),
    ], ids=["tol_tail", "ar_poly"])
    def test_other_model_or_policy_misses(self, monkeypatch, model, policy):
        pl.rate_experiment(pl.Farima(0.3), 1, [8, 16])
        calls = self._count(monkeypatch)
        pl.rate_experiment(model, 1, [8, 16], policy)
        assert calls["explicit"] == [8, 16]

    def test_second_model_evicts_first(self, monkeypatch):
        pl.rate_experiment(pl.Farima(0.3), 1, [8, 16])
        pl.rate_experiment(pl.Farima(0.25), 1, [8])
        # the store holds the second model's weights alone
        assert list(asymptotics._checked_store(pl.Farima(0.25), TruncationPolicy())) == [8]
        calls = self._count(monkeypatch)
        pl.rate_experiment(pl.Farima(0.3), 1, [8, 16])
        assert calls["explicit"] == [8, 16]

    def test_stored_weights_are_read_only(self):
        (phi,) = asymptotics._checked_sweep(pl.Farima(0.3), [8], TruncationPolicy())
        assert asymptotics._checked_store(pl.Farima(0.3), TruncationPolicy())[8] is phi
        with pytest.raises(ValueError):
            phi[0] = 1.0

    def test_disagreement_is_not_stored(self, monkeypatch):
        real = pl.multistep_normal_solve

        def corrupted(gamma, n, m):
            table = real(gamma, n, m)
            return dataclasses.replace(table, coefficients=table.coefficients + 0.01)

        monkeypatch.setattr(asymptotics, "multistep_normal_solve", corrupted)
        for _ in range(2):
            with pytest.raises(OracleDisagreementError):
                pl.rate_experiment(pl.Farima(0.3), 1, [8, 16])
            assert asymptotics._checked_store(pl.Farima(0.3), TruncationPolicy()) == {}

    def test_predict_is_not_stored(self, capsys, monkeypatch):
        calls = []
        real = cli.finite_predictor_multistep

        def counted(*args):
            calls.append(args[1])
            return real(*args)
        monkeypatch.setattr(cli, "finite_predictor_multistep", counted)
        argv = ["predict", "--model", "farima", "--d", "0.3", "--n", "8"]
        assert cli.main(argv) == 0 and cli.main(argv) == 0
        capsys.readouterr()
        assert calls == [8, 8]

    def test_sweep_replaced_midway(self, monkeypatch):
        # another sweep (another thread, say) replaces the store while this
        # one runs: each must keep its own model's weights
        models, cold = [pl.Farima(0.3), pl.Farima(0.25)], []
        for model in models:
            self._empty()
            cold.append(repr(dataclasses.astuple(pl.baxter_experiment(model, [8, 16, 32]))))
        self._empty()
        real, replaced = asymptotics.finite_predictor_explicit, []

        def interleaved(model, n, policy):
            if not replaced:
                replaced.append(n)
                pl.baxter_experiment(models[1], [8, 16, 32])
            return real(model, n, policy)
        monkeypatch.setattr(asymptotics, "finite_predictor_explicit", interleaved)
        got = [repr(dataclasses.astuple(pl.baxter_experiment(model, [8, 16, 32])))
               for model in models]
        assert replaced == [8]
        assert got == cold
        # the store holds the last model swept, every n of it
        assert list(asymptotics._checked_store(models[1], TruncationPolicy())) == [8, 16, 32]
