import math
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gridcox import crossval, inference, model
from gridcox.crossval import (
    FoldAssignment,
    ResidualPairing,
    aggregate_crps,
    assign_folds,
    build_partitions,
    crps_empirical,
    derive_rng,
    rank_models,
    run_study,
    split,
    subset_columns,
    subset_slices,
    thin_intensity,
    validation_residuals,
)
from gridcox.geodata import PointPattern
from gridcox.gmrf import LatticeMesh
from gridcox.inference import PosteriorDraws, bin_points
from gridcox.model import ModelSpec
from gridcox.simulate import Scenario, simulate_lgcp
from test_inference import random_draws, small_field_like


class TestFolds:
    def test_marks_in_range_and_deterministic(self, survey):
        folds = assign_folds(survey, 5, np.random.default_rng(1))
        assert folds.marks.shape == (survey.n,)
        assert folds.marks.min() >= 1 and folds.marks.max() <= 5
        again = assign_folds(survey, 5, np.random.default_rng(1))
        np.testing.assert_array_equal(folds.marks, again.marks)

    @pytest.mark.parametrize("k_folds", [2, 5, 10])
    def test_split_partitions_points(self, survey, k_folds):
        folds = assign_folds(survey, k_folds, np.random.default_rng(2))
        total_val = 0
        for k in range(1, k_folds + 1):
            train, val = split(survey, folds, k)
            assert train.n + val.n == survey.n
            total_val += val.n
            # train and val are disjoint: every point lands in exactly one
            marks = folds.marks
            assert val.n == int(np.sum(marks == k))
        assert total_val == survey.n

    def test_split_validates_input(self, survey):
        folds = assign_folds(survey, 3, np.random.default_rng(3))
        with pytest.raises(ValueError, match="out of range"):
            split(survey, folds, 4)
        short = FoldAssignment(n_folds=3, marks=folds.marks[:10])
        with pytest.raises(ValueError, match="does not match"):
            split(survey, short, 1)

    def test_needs_two_folds(self, survey):
        with pytest.raises(ValueError):
            assign_folds(survey, 1, np.random.default_rng(0))


class TestThinning:
    @pytest.mark.parametrize("k_folds", [2, 5, 10])
    def test_exact_sum(self, k_folds):
        rng = np.random.default_rng(4)
        lam = np.exp(rng.normal(size=1000))
        train, val = thin_intensity(lam, k_folds)
        # exact by construction, not within tolerance
        assert np.array_equal(train + val, lam)
        np.testing.assert_allclose(train, lam * (k_folds - 1) / k_folds, rtol=1e-15)
        np.testing.assert_allclose(val, lam / k_folds, rtol=1e-12)
        np.testing.assert_allclose(val, train / (k_folds - 1), rtol=1e-12)

    def test_scalar_input(self):
        train, val = thin_intensity(10.0, 5)
        assert train == pytest.approx(8.0)
        assert val == pytest.approx(2.0)


class TestCrps:
    def test_single_sample(self):
        assert crps_empirical(np.array([1.0]), 0.0) == pytest.approx(1.0)

    def test_two_sample_hand_computed(self):
        # F steps 0 -> 0.5 at x=0 and 0.5 -> 1 at x=2; against y=1 the
        # squared distance integrates to 0.25 + 0.25
        got = crps_empirical(np.array([0.0, 2.0]), 1.0)
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_sort_and_pairwise_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.normal(size=rng.integers(2, 200))
            y = float(rng.normal())
            a = crps_empirical(x, y, method="sort")
            b = crps_empirical(x, y, method="pairwise")
            assert a == pytest.approx(b, rel=1e-12, abs=1e-14)

    def test_gaussian_closed_form(self):
        rng = np.random.default_rng(6)
        sigma = 1.7
        x = rng.normal(0.0, sigma, size=100_000)
        # CRPS of N(0, sigma^2) against 0: sigma * (2 phi(0) - 1/sqrt(pi))
        closed = sigma * (2.0 / math.sqrt(2 * math.pi) - 1.0 / math.sqrt(math.pi))
        assert crps_empirical(x, 0.0) == pytest.approx(closed, rel=0.02)

    def test_translation_and_scale(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=500)
        base = crps_empirical(x, 0.3)
        shifted = crps_empirical(x + 5.0, 5.3)
        assert shifted == pytest.approx(base, rel=1e-10)
        scaled = crps_empirical(3.0 * x, 0.9)
        assert scaled == pytest.approx(3.0 * base, rel=1e-10)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            crps_empirical(np.ones(3), 0.0, method="exact")


def constant_intensity_draws(spec, lam, n_draws=3):
    """Draws whose intensity is the constant ``lam`` in every cell."""
    dense = np.zeros((n_draws, spec.n_dense))
    dense[:, 0] = math.log(lam)  # the intercept; campaign effects stay 0
    return PosteriorDraws(
        spec=spec,
        dense=dense,
        w=np.zeros((n_draws, 0)),
        log_hyper=np.zeros((n_draws, 0)),
        theta_mode=np.zeros(0),
    )


def constant_intensity_oracle(part, cell_area, val, lam, k_folds):
    """Residual per subset under a constant training intensity: the integral
    side is exact, lam * |B_g| / (K - 1)."""
    g_of_point = part.subset_of_points(val.x, val.y)
    return np.array(
        [
            np.sum(g_of_point == g) - lam * len(part.subsets[g]) * cell_area / (k_folds - 1)
            for g in range(part.n_subsets)
        ]
    )


class TestValidationResiduals:
    def test_constant_intensity_oracle(self, stack, campaign_domains, survey):
        spec = ModelSpec(include_poceanica=False, include_field=False, n_campaigns=1)
        d = campaign_domains[8]
        k_folds = 5
        pts = survey.for_campaign(8)
        pts = pts.take(np.argsort(pts.x, kind="stable"))
        pts = PointPattern(pts.x, pts.y, np.ones(pts.n, dtype=int))
        folds = assign_folds(pts, k_folds, np.random.default_rng(8))
        train, val = split(pts, folds, 1)
        like = bin_points(spec, stack, {1: d}, train)
        lam_train = 0.002  # fitted training intensity, constant over cells
        partitions = build_partitions({1: d}, 3, 3)
        pairing = ResidualPairing.build(like, partitions)
        draws = constant_intensity_draws(spec, lam_train)
        resid = validation_residuals(draws, pairing, subset_columns(partitions, val), k_folds)
        part = partitions[1]
        assert resid.shape == (3, part.n_subsets)
        expect = constant_intensity_oracle(part, d.grid.cell_area, val, lam_train, k_folds)
        np.testing.assert_allclose(resid, expect[None, :].repeat(3, 0), rtol=1e-12, atol=1e-12)

    def test_two_campaigns_stack_their_subsets(self, stack, campaign_domains, survey):
        # campaign 1 watches D2 and campaign 2 the full domain D: two
        # different partitions, stacked campaign by campaign
        spec = ModelSpec(include_poceanica=False, include_field=False, n_campaigns=2)
        doms = {1: campaign_domains[1], 2: campaign_domains[8]}
        pts = survey.take(np.isin(survey.campaign, [1, 8]))
        pts = PointPattern(pts.x, pts.y, np.where(pts.campaign == 8, 2, 1))
        k_folds = 4
        folds = assign_folds(pts, k_folds, np.random.default_rng(10))
        train, val = split(pts, folds, 2)
        like = bin_points(spec, stack, doms, train)
        partitions = build_partitions(doms, 3, 4)
        assert partitions[1] is not partitions[2]
        cols = subset_slices(partitions)
        n1, n2 = partitions[1].n_subsets, partitions[2].n_subsets
        assert cols == {1: slice(0, n1), 2: slice(n1, n1 + n2)}

        lam_train = 0.003
        draws = constant_intensity_draws(spec, lam_train, n_draws=4)
        pairing = ResidualPairing.build(like, partitions)
        resid = validation_residuals(draws, pairing, subset_columns(partitions, val), k_folds)
        assert resid.shape == (4, n1 + n2)
        for t in (1, 2):
            expect = constant_intensity_oracle(
                partitions[t], stack.grid.cell_area, val.for_campaign(t), lam_train, k_folds
            )
            np.testing.assert_allclose(
                resid[:, cols[t]], expect[None, :].repeat(4, 0), rtol=1e-12, atol=1e-12
            )


def assert_same_likelihood(got, want):
    """Two likelihoods array for array, ``loglik_const`` bit for bit."""
    assert got.spec == want.spec and got.mesh is want.mesh
    for a, b in ((got.design, want.design), (got.groups, want.groups)):
        for name in ("cell_ids", "mesh_index", "x"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.rows == b.rows and a.weight == b.weight
    for name in ("group_of", "y", "exposure"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert getattr(got, name).dtype == getattr(want, name).dtype
    assert got.loglik_const == want.loglik_const


@pytest.mark.parametrize("with_field", [False, True], ids=["glm_3c_tau", "field_1c"])
def test_fold_recount_is_bin_points_of_the_training_points(
    stack, campaign_domains, survey, with_field
):
    # oracle: binning each fold's training pattern from scratch
    if with_field:
        doms = {1: campaign_domains[8]}
        pts = survey.for_campaign(8)
        pts = PointPattern(pts.x, pts.y, np.ones(pts.n, dtype=int))
    else:
        # campaigns on D2, D1 and D, with campaign effects and their tau
        doms = {1: campaign_domains[1], 2: campaign_domains[6], 3: campaign_domains[8]}
        pts = survey.take(np.isin(survey.campaign, [1, 6, 8]))
        pts = PointPattern(pts.x, pts.y, np.searchsorted([1, 6, 8], pts.campaign) + 1)
    spec = ModelSpec(include_poceanica=True, include_field=with_field, n_campaigns=len(doms))
    assert ("log_tau" in spec.hyper_names) == (not with_field)
    k_folds = 3
    folds = assign_folds(pts, k_folds, np.random.default_rng(4))
    study, failures = crossval._Study.set_up(
        stack, doms, pts, [spec], folds, n_draws=10, seed=0,
        partitions=build_partitions(doms, 3, 3),
    )
    assert failures == {}
    mesh = study.likes[0].mesh
    assert (mesh is not None) == with_field
    for k in range(1, k_folds + 1):
        train, _ = split(pts, folds, k)
        want = bin_points(spec, stack, doms, train, mesh=mesh)
        assert_same_likelihood(study.fold_likelihood(0, k), want)


def membership_residuals(draws, like, partitions, val, k_folds):
    """The residuals by the dense formula: exp of the whole (A, N) eta array,
    times a 0/1 subset-membership matrix per campaign."""
    design = like.design
    lam = np.exp(design.eta(draws.dense, draws.w))
    cols = subset_slices(partitions)
    out = np.empty((draws.n_draws, max(c.stop for c in cols.values())))
    for t, c in cols.items():
        rows, part = design.rows[t], partitions[t]
        g_of_cell = part.cell_subset.ravel()[design.cell_ids[rows]]
        member = np.zeros((g_of_cell.size, part.n_subsets))
        member[np.arange(g_of_cell.size), g_of_cell] = 1.0
        pts = val.for_campaign(t)
        counts = np.bincount(part.subset_of_points(pts.x, pts.y), minlength=part.n_subsets)
        out[:, c] = counts - (lam[:, rows] @ member) * (design.weight / (k_folds - 1))
    return out


@pytest.mark.parametrize("n_draws", [3, model.ETA_BLOCK_DRAWS + 3])
class TestBlockResiduals:
    """``validation_residuals`` against the dense-membership formula, below
    one block of draws and across a partial last block."""

    K_FOLDS = 4

    def check(self, spec, stack, doms, pts, partitions, n_draws, mesh=None):
        folds = assign_folds(pts, self.K_FOLDS, np.random.default_rng(3))
        train, val = split(pts, folds, 1)
        like = bin_points(spec, stack, doms, train, mesh=mesh)
        draws = random_draws(spec, mesh, n_draws, seed=n_draws)
        pairing = ResidualPairing.build(like, partitions)
        resid = validation_residuals(
            draws, pairing, subset_columns(partitions, val), self.K_FOLDS
        )
        expect = membership_residuals(draws, like, partitions, val, self.K_FOLDS)
        assert resid.shape == expect.shape
        np.testing.assert_allclose(resid, expect, rtol=1e-12, atol=1e-12)

    def test_field_model_with_two_partitions(self, stack, campaign_domains, survey, n_draws):
        # campaign 1 watches D2 and campaign 2 the full domain D
        spec = ModelSpec(include_poceanica=True, include_field=True, n_campaigns=2)
        doms = {1: campaign_domains[1], 2: campaign_domains[8]}
        pts = survey.take(np.isin(survey.campaign, [1, 8]))
        pts = PointPattern(pts.x, pts.y, np.where(pts.campaign == 8, 2, 1))
        partitions = build_partitions(doms, 3, 4)
        assert partitions[1] is not partitions[2]
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=50.0)
        self.check(spec, stack, doms, pts, partitions, n_draws, mesh)

    def test_partition_with_empty_rectangles(self, stack, campaign_domains, survey, n_draws):
        # the meadow blob D1 leaves the corners of its bounding box empty
        spec = ModelSpec(include_poceanica=False, include_field=False, n_campaigns=1)
        doms = {1: campaign_domains[6]}
        pts = survey.for_campaign(6)
        pts = PointPattern(pts.x, pts.y, np.ones(pts.n, dtype=int))
        partitions = build_partitions(doms, 6, 6)
        assert partitions[1].n_empty > 0
        self.check(spec, stack, doms, pts, partitions, n_draws)

    def test_subsets_without_design_rows(self, stack, campaign_domains, survey, n_draws):
        # a partition of the full domain D scores a design on D1 alone: the
        # subsets outside D1 integrate to 0
        spec = ModelSpec(include_poceanica=False, include_field=False, n_campaigns=1)
        pts = survey.for_campaign(6)
        pts = PointPattern(pts.x, pts.y, np.ones(pts.n, dtype=int))
        partitions = build_partitions({1: campaign_domains[8]}, 3, 3)
        held = np.unique(partitions[1].cell_subset.ravel()[campaign_domains[6].cell_ids])
        assert held.size < partitions[1].n_subsets
        self.check(spec, stack, {1: campaign_domains[6]}, pts, partitions, n_draws)


def test_block_scoring_never_holds_an_eta_array(stack, campaign_domains, survey):
    # a whole (A, N) array of eta would be A * N * 8 bytes; the residuals
    # and the DIC may peak at a quarter of it
    like = small_field_like(stack, campaign_domains)
    draws = inference.fit(like, n_draws=1000, rng=np.random.default_rng(0))
    pts = survey.for_campaign(8)
    val = PointPattern(pts.x, pts.y, np.ones(pts.n, dtype=int))
    partitions = build_partitions({1: campaign_domains[8]}, 3, 3)
    bound = draws.n_draws * like.design.n_cells * 8 / 4
    for score in (
        lambda: validation_residuals(
            draws, ResidualPairing.build(like, partitions), subset_columns(partitions, val), 5
        ),
        lambda: inference.compute_dic(like, draws),
    ):
        tracemalloc.start()
        try:
            score()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestAggregation:
    def test_fold_average(self):
        rng = np.random.default_rng(9)
        resid = rng.normal(0, 1, size=(50, 3, 5)) * np.array([1.0, 1.0, 1.0, 2.0, 2.0])
        by_subset, overall = aggregate_crps(resid)
        assert by_subset.shape == (5,)
        for g in range(5):
            for method in ("sort", "pairwise"):
                manual = np.mean(
                    [crps_empirical(resid[:, k, g], 0.0, method) for k in range(3)]
                )
                assert by_subset[g] == pytest.approx(manual, rel=1e-12)
        assert overall == pytest.approx(by_subset.mean(), rel=1e-12)

    def test_rank_models_ascending_with_ties(self):
        scores = {"m_b": 0.5, "m_a": 0.5, "m_c": 0.1}
        assert rank_models(scores) == ["m_c", "m_a", "m_b"]


class TestDeriveRng:
    def test_stable_and_distinct(self):
        a = derive_rng(42, "m1", "fold", 1).integers(0, 1 << 30, 4)
        b = derive_rng(42, "m1", "fold", 1).integers(0, 1 << 30, 4)
        c = derive_rng(42, "m1", "fold", 2).integers(0, 1 << 30, 4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


@pytest.fixture(scope="module")
def study_inputs(stack, campaign_domains):
    d = campaign_domains[8]
    true_spec = ModelSpec(
        covariates=("depth",), include_poceanica=False, include_field=False,
        n_campaigns=1, model_id="m_depth",
    )
    scn = Scenario(
        stack=stack, campaign_domains={1: d}, spec=true_spec, mu0=-7.5, beta=(0.2,),
    )
    survey = simulate_lgcp(scn, np.random.default_rng(100))
    null_spec = ModelSpec(
        covariates=(), include_poceanica=False, include_field=False,
        n_campaigns=1, model_id="m_null",
    )
    return stack, {1: d}, survey.points, [true_spec, null_spec]


def assert_same_table(one, two):
    """Two study tables hold the same scores, subset tables, DIC and
    summaries, to the bit."""
    assert one.model_ids == two.model_ids
    assert one.scores == two.scores  # exact float equality
    assert one.failures == two.failures
    for m in one.scores:
        for t in one.by_subset[m]:
            np.testing.assert_array_equal(one.by_subset[m][t], two.by_subset[m][t])
            np.testing.assert_array_equal(one.mean_residual[m][t], two.mean_residual[m][t])
    assert one.dic.keys() == two.dic.keys()
    for m in one.dic:
        assert vars(one.dic[m]) == vars(two.dic[m])
        for name in ("mean", "sd", "q05", "q50", "q95"):
            np.testing.assert_array_equal(
                getattr(one.summaries[m], name), getattr(two.summaries[m], name)
            )


class TestRunStudy:
    def test_study_scores_and_ranking(self, study_inputs):
        stack, doms, points, specs = study_inputs
        table = run_study(
            stack, doms, points, specs, n_folds=2, n_draws=100,
            partition_dims=(3, 3), seed=11, workers=1,
        )
        assert set(table.scores) == {"m_depth", "m_null"}
        assert table.ranking()[0] == "m_depth"  # true model predicts better
        assert set(table.dic) == {"m_depth", "m_null"}
        assert table.dic["m_depth"].dic < table.dic["m_null"].dic
        assert "mu0" in table.summaries["m_depth"].names

    def test_fit_failure_raises_unless_recorded(self, study_inputs):
        stack, doms, points, specs = study_inputs
        bad = ModelSpec(
            covariates=("nope",), include_poceanica=False, include_field=False,
            n_campaigns=1, model_id="m_bad",
        )
        kwargs = dict(n_folds=2, n_draws=20, partition_dims=(3, 3), seed=13, workers=1)
        with pytest.raises(KeyError, match="unknown covariate 'nope'"):
            run_study(stack, doms, points, [specs[1], bad], **kwargs)
        table = run_study(stack, doms, points, [specs[1], bad], fail_fast=False, **kwargs)
        assert table.failures == {"m_bad": ["full fit: KeyError: \"unknown covariate 'nope'\""]}
        assert set(table.scores) == {"m_null"}

    def test_worker_count_does_not_change_results(self, study_inputs, monkeypatch):
        # four workers are the caller and three forked children, or the caller
        # alone where fork is unavailable; neither may change a byte of the table
        stack, doms, points, specs = study_inputs
        kwargs = dict(n_folds=2, n_draws=60, partition_dims=(3, 3), seed=12)
        with monkeypatch.context() as m:

            def no_fork():
                raise AssertionError("a study run in the caller must not fork")

            m.setattr(os, "fork", no_fork)
            one = run_study(stack, doms, points, specs, workers=1, **kwargs)
            m.setattr(crossval, "_FORK", False)
            many = [run_study(stack, doms, points, specs, workers=4, **kwargs)]
        if crossval._FORK:
            many.append(run_study(stack, doms, points, specs, workers=4, **kwargs))
        for table in many:
            assert_same_table(one, table)

    def test_each_model_is_binned_once(self, study_inputs, monkeypatch, tmp_path):
        # the caller sets the study up before any fit: the folds recount their
        # training points on the full data's bins, and no forked worker bins
        stack, doms, points, specs = study_inputs
        log = tmp_path / "bin_points.log"

        def counting_bin_points(spec, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {spec.model_id}\n")
            return bin_points(spec, *args, **kwargs)

        monkeypatch.setattr(crossval, "bin_points", counting_bin_points)
        for workers in (1, 2) if crossval._FORK else (1,):
            log.write_text("")
            run_study(
                stack, doms, points, specs, n_folds=3, n_draws=20, partition_dims=(3, 3),
                seed=16, workers=workers,
            )
            calls = [ln.split() for ln in log.read_text().splitlines()]
            assert sorted(m for _, m in calls) == sorted(s.model_id for s in specs), workers
            assert all(int(pid) == os.getpid() for pid, _ in calls), workers

    def test_stray_point_fails_every_model(self, study_inputs):
        # a point outside the domain fails each model's binning; the study
        # records that per model rather than failing on the subset columns
        stack, doms, points, specs = study_inputs
        stray = PointPattern(
            np.append(points.x, -5.0), np.append(points.y, -5.0),
            np.append(points.campaign, 1),
        )
        kwargs = dict(n_folds=2, n_draws=20, partition_dims=(3, 3), seed=18, workers=1)
        table = run_study(stack, doms, stray, specs, fail_fast=False, **kwargs)
        msg = "full fit: ValueError: campaign 1: 1 points fall outside the campaign domain"
        assert table.failures == {s.model_id: [msg] for s in specs}
        assert table.scores == {} and table.dic == {}
        with pytest.raises(ValueError, match="1 points fall outside the campaign domain"):
            run_study(stack, doms, stray, specs, fail_fast=True, **kwargs)

    @pytest.mark.skipif(not crossval._FORK, reason="needs forked workers")
    def test_forked_workers_inherit_the_study(self, study_inputs, monkeypatch):
        # a forked worker reads the study from the memory it inherited, so
        # no task may pickle it
        stack, doms, points, specs = study_inputs
        kwargs = dict(n_folds=2, n_draws=60, partition_dims=(3, 3), seed=17)
        one = run_study(stack, doms, points, specs, workers=1, **kwargs)

        def refuse(self, protocol):
            raise AssertionError("a task pickled the study")

        monkeypatch.setattr(crossval._Study, "__reduce_ex__", refuse)
        two = run_study(stack, doms, points, specs, workers=2, **kwargs)
        assert_same_table(one, two)

    @pytest.mark.skipif(not crossval._FORK, reason="needs forked workers")
    def test_forks_no_more_workers_than_fold_fits(self, study_inputs, monkeypatch):
        # the caller is one worker and forks the others at once, so 64 workers
        # for 2 fold fits would fork 62 idle processes. A model whose set-up
        # failed has no fits, so it adds no worker, and a study of such models
        # forks nothing; nor does one worker, or a platform without fork.
        stack, doms, points, specs = study_inputs
        bad = ModelSpec(
            covariates=("nope",), include_poceanica=False, include_field=False,
            n_campaigns=1, model_id="m_bad",
        )
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)  # counted in the caller: the child starts inside fork() below
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        kwargs = dict(n_folds=2, n_draws=20, partition_dims=(3, 3), seed=15, fail_fast=False)
        for study_specs, workers, want in (
            ([specs[0]], 64, 1), ([specs[0], bad], 64, 1), ([bad], 64, 0), ([specs[0]], 1, 0),
        ):
            forks.clear()
            table = run_study(stack, doms, points, study_specs, workers=workers, **kwargs)
            assert len(forks) == want, ([s.model_id for s in study_specs], workers)
        assert table.scores.keys() == {"m_depth"}
        monkeypatch.setattr(crossval, "_FORK", False)
        forks.clear()
        table = run_study(stack, doms, points, [specs[0], bad], workers=64, **kwargs)
        assert forks == [] and set(table.failures) == {"m_bad"}

    def test_fold_scores_match_aggregate_crps_of_the_residuals(self, study_inputs, monkeypatch):
        # oracle: each fold's (A, G) residuals, recorded as its task makes
        # them and stacked to the (A, K, G) array that aggregate_crps scores
        stack, doms, points, specs = study_inputs
        n_folds = 3
        recorded, current = {}, []
        task = crossval._fold_fit_task
        residuals = crossval.validation_residuals

        def keyed_task(model_idx, k, theta_init):
            current[:] = [(model_idx, k)]
            return task(model_idx, k, theta_init)

        def recording_residuals(*args):
            recorded[current[0]] = out = residuals(*args)
            return out

        monkeypatch.setattr(crossval, "_fold_fit_task", keyed_task)
        monkeypatch.setattr(crossval, "validation_residuals", recording_residuals)
        table = run_study(
            stack, doms, points, specs, n_folds=n_folds, n_draws=100, partition_dims=(3, 3),
            seed=19, workers=1,
        )
        assert len(recorded) == len(specs) * n_folds
        for i, spec in enumerate(specs):
            m = spec.model_id
            resid = np.stack([recorded[(i, k)] for k in range(1, n_folds + 1)], axis=1)
            crps_g, score = aggregate_crps(resid)
            np.testing.assert_array_equal(table.by_subset[m][1], crps_g)
            assert table.scores[m] == score  # exact float equality
            # a mean of per-fold means: equal up to summation order
            np.testing.assert_allclose(
                table.mean_residual[m][1], resid.mean(axis=(0, 1)), rtol=1e-12, atol=0
            )

    @pytest.mark.skipif(not crossval._FORK, reason="needs forked workers")
    def test_failed_folds_are_recorded_alike_at_any_worker_count(self, study_inputs, monkeypatch):
        # tasks finish in no fixed order at two workers; the table must not
        # show it. Folds 3 and 1 of m_null raise, in the task's own process.
        stack, doms, points, specs = study_inputs
        task_rng = crossval.derive_rng

        def failing_rng(seed, *parts):
            if parts in (("m_null", "fold", 3), ("m_null", "fold", 1)):
                raise FloatingPointError(f"fold {parts[-1]} forced to fail")
            return task_rng(seed, *parts)

        monkeypatch.setattr(crossval, "derive_rng", failing_rng)
        kwargs = dict(n_folds=3, n_draws=40, partition_dims=(3, 3), seed=20, fail_fast=False)
        one = run_study(stack, doms, points, specs, workers=1, **kwargs)
        two = run_study(stack, doms, points, specs, workers=2, **kwargs)
        expect = {"m_null": [
            "fold 1: FloatingPointError: fold 1 forced to fail",
            "fold 3: FloatingPointError: fold 3 forced to fail",
        ]}
        for table in (one, two):
            assert table.failures == expect
            assert set(table.scores) == {"m_depth"}
            assert set(table.dic) == {"m_depth", "m_null"}  # the full fits held
        assert one.scores == two.scores  # exact float equality
        np.testing.assert_array_equal(one.by_subset["m_depth"][1], two.by_subset["m_depth"][1])
        assert one.by_subset.keys() == two.by_subset.keys()

    @pytest.mark.skipif(not crossval._FORK, reason="needs forked workers")
    def test_error_in_a_child_is_raised_by_the_caller(self, study_inputs, monkeypatch):
        # a fold that raises in a forked child stops the study with the same
        # error as a fold that raises in the caller, and leaves no child behind
        stack, doms, points, specs = study_inputs
        kwargs = dict(n_folds=2, n_draws=20, partition_dims=(3, 3), seed=22, fail_fast=True)
        caller = os.getpid()
        task = crossval._fold_fit_task

        def failing_fold(model_idx, k, theta_init):
            if os.getpid() != caller or not in_child_only:
                raise FloatingPointError("fold fit forced to fail")
            time.sleep(0.2)  # so that the child claims a fold
            return task(model_idx, k, theta_init)

        monkeypatch.setattr(crossval, "_fold_fit_task", failing_fold)
        in_child_only = False
        with pytest.raises(FloatingPointError) as one:
            run_study(stack, doms, points, specs, workers=1, **kwargs)
        in_child_only = True
        with pytest.raises(FloatingPointError) as two:
            run_study(stack, doms, points, specs, workers=2, **kwargs)
        assert type(two.value) is type(one.value)
        assert str(two.value) == str(one.value)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no child left
        monkeypatch.setattr(crossval, "_fold_fit_task", task)
        table = run_study(stack, doms, points, specs, workers=2, **kwargs)
        assert set(table.scores) == {"m_depth", "m_null"}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fold_task_result_grows_with_subsets_not_draws(
        self, stack, campaign_domains, survey, monkeypatch
    ):
        # a fold task returns each subset's CRPS and mean residual: at
        # A = 500 and G = 64 its result pickles to well under the 256 KB of
        # the (A, G) residuals it scores, and fewer draws leave it unchanged
        spec = ModelSpec(
            covariates=(), include_poceanica=False, include_field=False, n_campaigns=1,
            model_id="m_null",
        )
        doms = {1: campaign_domains[8]}
        pts = survey.for_campaign(8)
        pts = PointPattern(pts.x, pts.y, np.ones(pts.n, dtype=int))
        partitions = build_partitions(doms, 8, 8)
        sizes = {}
        for n_draws in (50, 500):
            folds = assign_folds(pts, 2, np.random.default_rng(4))
            study, failures = crossval._Study.set_up(
                stack, doms, pts, [spec], folds, n_draws, 21, partitions
            )
            assert failures == {}
            monkeypatch.setattr(crossval, "_study", study)
            theta = crossval._full_fit_task(0)[3]
            out = crossval._fold_fit_task(0, 1, theta)
            assert out[-1] is None
            assert out[2].shape == out[3].shape == (64,)
            sizes[n_draws] = len(pickle.dumps(out))
        assert sizes[500] == sizes[50]
        assert sizes[500] < 4096

    @pytest.mark.skipif(
        not crossval._FORK or not Path("/proc/self/task").is_dir(),
        reason="needs forked workers and /proc",
    )
    def test_forked_workers_start_no_openblas_threads(self, study_inputs, monkeypatch, tmp_path):
        # oracle: the kernel's thread list of each worker and OpenBLAS's own
        # getters, read before and after every fit a study task makes
        controls = inference._openblas_threads()
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        log = tmp_path / "fits.log"
        task_fit = crossval.fit
        caller = os.getpid()

        def record():
            counts = " ".join(str(get()) for _, get in controls)
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {len(os.listdir('/proc/self/task'))} {counts}\n")

        def recording_fit(*args, **kwargs):
            record()
            draws = task_fit(*args, **kwargs)
            record()
            if os.getpid() == caller:
                time.sleep(0.05)  # so that the child claims fits too
            return draws

        monkeypatch.setattr(crossval, "fit", recording_fit)
        stack, doms, points, specs = study_inputs
        saved = [get() for _, get in controls]
        try:
            # this process's threads without OpenBLAS's: a fork stops them,
            # and at a count of 1 nothing starts them again
            for setter, _ in controls:
                setter(1)
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            os.waitpid(pid, 0)
            own = str(len(os.listdir("/proc/self/task")))
            for setter, _ in controls:
                setter(2)  # a caller at 2 threads, whatever this machine's default
            assert len(os.listdir("/proc/self/task")) > int(own)  # OpenBLAS's run again
            run_study(
                stack, doms, points, specs, n_folds=2, n_draws=20, partition_dims=(3, 3),
                seed=14, workers=2,
            )
            after = [get() for _, get in controls]
        finally:
            for (setter, _), n in zip(controls, saved):
                setter(n)
        lines = [ln.split() for ln in log.read_text().splitlines()]
        assert len(lines) == 2 * 3 * len(specs)  # 1 full and 2 fold fits per model
        # the caller and the child it forks each fit: the caller with no
        # OpenBLAS thread, the child with its one thread alone
        assert {int(pid) == os.getpid() for pid, *_ in lines} == {True, False}, lines
        ones = ["1"] * len(controls)
        for pid, threads, *counts in lines:
            assert counts == ones, lines
            assert threads == (own if int(pid) == os.getpid() else "1"), lines
        # the caller keeps one thread: restoring 2 would restart the server
        # threads that the fork stopped
        assert after == [1] * len(controls)

    def test_caller_gets_its_openblas_count_back_at_one_worker(self, study_inputs):
        controls = inference._openblas_threads()
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        stack, doms, points, specs = study_inputs
        saved = [get() for _, get in controls]
        for setter, _ in controls:
            setter(2)
        try:
            run_study(
                stack, doms, points, specs, n_folds=2, n_draws=20, partition_dims=(3, 3),
                seed=14, workers=1,
            )
            after = [get() for _, get in controls]
        finally:
            for (setter, _), n in zip(controls, saved):
                setter(n)
        assert after == [2] * len(controls)


# A study script with its entry point at module level, as a user might write
# it. The 64 x 64 survey makes the study inputs about 150 KiB when pickled,
# more than a 64 KiB pipe buffer, so a runner that sent them with a worker's
# start-up data would block on a worker that never reads them. The script
# prints a line each time its module-level code runs.
UNGUARDED_SCRIPT = """\
import numpy as np
from gridcox import (
    CovariateStack, ModelSpec, RasterGrid, Scenario, crossval, habitat_domains, run_study,
    simulate_lgcp,
)

print("module code ran", flush=True)
crossval._FORK = {fork}
codes = np.ones((64, 64))
codes[40:, 40:] = 2.0
legend = {{1: "Sandy", 2: "P. oceanica"}}
habitat = RasterGrid(0.0, 0.0, 10.0, 10.0, codes, kind="categorical", legend=legend)
stack = CovariateStack(
    grid=habitat, habitat=habitat, poceanica_label="P. oceanica", reference_class="Sandy"
)
domains = {{1: habitat_domains(habitat, "P. oceanica")[0]}}
spec = ModelSpec(
    covariates=(), include_poceanica=False, include_field=False, n_campaigns=1, model_id="m_null"
)
scn = Scenario(stack=stack, campaign_domains=domains, spec=spec, mu0=-5.5)
points = simulate_lgcp(scn, np.random.default_rng(0)).points
run_study(
    stack, domains, points, [spec], n_folds=2, n_draws=20, partition_dims=(3, 3),
    workers={workers},
)
"""


@pytest.mark.parametrize(
    "workers, fork",
    [
        pytest.param(1, crossval._FORK, id="1"),
        pytest.param(2, crossval._FORK, id="2"),
        pytest.param(2, False, id="2-nofork"),
    ],
)
def test_unguarded_script_runs_once(tmp_path, workers, fork):
    # One worker, and any worker count without fork, runs in the script's
    # process; forked workers do not re-run the script. Every case must
    # finish, with the module-level code run once. The script runs in its
    # own session so that a timeout can kill it together with any worker it
    # started.
    script = tmp_path / "study.py"
    script.write_text(UNGUARDED_SCRIPT.format(workers=workers, fork=fork))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, str(script)], cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    timeout = 120
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"unguarded study script still running after {timeout} s")
    assert proc.returncode == 0, err[-2000:]
    assert out.count("module code ran") == 1, out


# A study whose task, patched by name as ``perfbench``'s tracer patches it,
# SIGKILLs its own process when it runs in a forked child, after a pause. The
# caller pauses in its own tasks of that kind, so that the child claims one.
# Either way the caller must raise ChildProcessError, and leave no child
# behind.
DYING_WORKER_SCRIPT = """\
import os, signal, time
import numpy as np
from gridcox import (
    CovariateStack, ModelSpec, RasterGrid, Scenario, crossval, habitat_domains, run_study,
    simulate_lgcp,
)

caller = os.getpid()
task = crossval.{task}


def dying_task(*args):
    if os.getpid() != caller:
        time.sleep({child_pause})
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep({caller_pause})
    return task(*args)


crossval.{task} = dying_task
codes = np.ones((16, 16))
codes[10:, 10:] = 2.0
legend = {{1: "Sandy", 2: "P. oceanica"}}
habitat = RasterGrid(0.0, 0.0, 10.0, 10.0, codes, kind="categorical", legend=legend)
stack = CovariateStack(
    grid=habitat, habitat=habitat, poceanica_label="P. oceanica", reference_class="Sandy"
)
domains = {{1: habitat_domains(habitat, "P. oceanica")[0]}}
specs = [
    ModelSpec(covariates=(), include_poceanica=poc, include_field=False, n_campaigns=1,
              model_id=f"m_{{poc}}")
    for poc in (False, True)
]
scn = Scenario(stack=stack, campaign_domains=domains, spec=specs[0], mu0=-3.0)
points = simulate_lgcp(scn, np.random.default_rng(0)).points
try:
    run_study(
        stack, domains, points, specs, n_folds=2, n_draws=20, partition_dims=(2, 2),
        workers=2,
    )
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left", flush=True)
"""


@pytest.mark.skipif(not crossval._FORK, reason="needs forked workers")
@pytest.mark.parametrize(
    "task, child_pause, caller_pause",
    [
        # two models: the child claims one full fit while the caller holds the
        # other, and dies while the caller waits for its mode at a fold
        pytest.param("_full_fit_task", 1.0, 0.3, id="full"),
        pytest.param("_fold_fit_task", 0.0, 0.5, id="fold"),
    ],
)
def test_dying_worker_fails_the_study(tmp_path, task, child_pause, caller_pause):
    script = tmp_path / "study.py"
    script.write_text(DYING_WORKER_SCRIPT.format(
        task=task, child_pause=child_pause, caller_pause=caller_pause
    ))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, str(script)], cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    timeout = 120
    start = time.monotonic()
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"study with a dying worker still running after {timeout} s")
    elapsed = time.monotonic() - start
    assert proc.returncode != 0, out
    assert "ChildProcessError: study worker" in err, err[-2000:]
    assert "killed by signal 9" in err, err[-2000:]
    if task == "_full_fit_task":
        assert ", in mode\n" in err, err[-2000:]  # raised while the fold waited
    assert out.strip() == "no child left", out
    assert elapsed < timeout / 4
