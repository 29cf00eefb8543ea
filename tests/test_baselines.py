import numpy as np
import pytest

from drsl.baselines import fit_glm, fit_lasso, fit_lrsl
from drsl.data_model import DesignMatrix, FitConfig, SubjectData
from drsl.errors import DrslError
from drsl.optimizer import regularizer, signature_step, soft_threshold


def make_problem(t=40, v=6, p=3, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    d = np.abs(rng.standard_normal((t, p))) + 0.1
    b_true = rng.standard_normal((p, v))
    x = d @ b_true + noise * rng.standard_normal((t, v))
    data = SubjectData(f"s{seed}", x)
    design = DesignMatrix(conditions=tuple(f"c{k}" for k in range(p)), values=d)
    return data, design, b_true


class TestFitGlm:
    def test_noiseless_recovery(self):
        data, design, b_true = make_problem(noise=0.0)
        b = fit_glm(data, design)
        assert np.linalg.norm(b.values - b_true) < 1e-10

    def test_duplicated_column_splits_coefficient(self):
        d1 = np.array([[1.0], [2.0], [0.5]])
        x = d1 @ np.array([[3.0, -1.0]])
        design = DesignMatrix(conditions=("a", "b"), values=np.hstack([d1, d1]))
        b = fit_glm(SubjectData("s", x), design)
        # minimum-norm solution halves the single-column coefficient
        single = np.linalg.pinv(np.hstack([d1, d1])) @ x
        np.testing.assert_allclose(b.values, single, atol=1e-10)
        np.testing.assert_allclose(b.values[0], b.values[1], atol=1e-10)
        np.testing.assert_allclose(b.values[0], [1.5, -0.5], atol=1e-10)

    def test_matches_normal_equations(self):
        data, design, _ = make_problem(noise=0.3, seed=4)
        b = fit_glm(data, design)
        d = design.values
        oracle = np.linalg.solve(d.T @ d, d.T @ data.responses)
        np.testing.assert_allclose(b.values, oracle, atol=1e-8)

    def test_residual_orthogonal_to_design(self):
        data, design, _ = make_problem(noise=0.5, seed=9)
        b = fit_glm(data, design)
        resid = data.responses - design.values @ b.values
        np.testing.assert_allclose(design.values.T @ resid, 0.0, atol=1e-8)


class TestFitLasso:
    def test_soft_threshold(self):
        np.testing.assert_allclose(
            soft_threshold(np.array([-2.0, -0.3, 0.0, 0.4, 3.0]), 0.5),
            [-1.5, 0.0, 0.0, 0.0, 2.5],
        )

    def test_zero_penalty_converges_to_glm(self):
        data, design, _ = make_problem(t=60, noise=0.1, seed=2)
        glm = fit_glm(data, design).values
        lasso = fit_lasso(data, design, alpha_lasso=0.0, iterations=4000).values
        rel = np.linalg.norm(lasso - glm) / np.linalg.norm(glm)
        assert rel < 1e-3

    def test_huge_penalty_kills_everything(self):
        data, design, _ = make_problem(seed=3)
        kill = 2.0 * np.abs(design.values.T @ data.responses).max()
        b = fit_lasso(data, design, alpha_lasso=kill, iterations=50)
        np.testing.assert_array_equal(b.values, 0.0)

    def test_scalar_closed_form(self):
        d = np.array([[1.0], [2.0], [-1.0]])
        x = np.array([[2.0], [3.9], [-2.1]])
        alpha = 1.5
        design = DesignMatrix(conditions=("a", "b"), values=np.hstack([d, np.zeros((3, 1))]))
        # closed form for the active scalar: soft(d^T x, alpha/2) / d^T d
        z = (d.T @ x).item()
        expected = np.sign(z) * max(abs(z) - alpha / 2.0, 0.0) / (d.T @ d).item()
        b = fit_lasso(SubjectData("s", x), design, alpha_lasso=alpha, iterations=3000)
        assert b.values[0, 0] == pytest.approx(expected, abs=1e-8)
        assert b.values[1, 0] == 0.0

    def test_sparser_than_glm(self):
        data, design, _ = make_problem(t=50, v=8, noise=0.4, seed=7)
        glm = fit_glm(data, design).values
        lasso = fit_lasso(data, design, alpha_lasso=2.0, iterations=2000).values
        assert np.sum(np.abs(lasso) < 1e-8) >= np.sum(np.abs(glm) < 1e-8)

    def test_negative_penalty_rejected(self):
        data, design, _ = make_problem()
        with pytest.raises(DrslError, match="alpha_lasso must be >= 0 and finite, got -1.0"):
            fit_lasso(data, design, alpha_lasso=-1.0, iterations=500)

    def test_nan_penalty_rejected(self):
        data, design, _ = make_problem()
        with pytest.raises(DrslError, match="alpha_lasso must be >= 0 and finite, got nan"):
            fit_lasso(data, design, alpha_lasso=float("nan"), iterations=500)

    def test_auto_step_below_stability_limit(self):
        # a step above 1 / L diverges on a rescaled design; the automatic one
        # reaches the LASSO's optimality conditions at every scale
        data, base, _ = make_problem(seed=5)
        alpha = 0.9
        for scale in (1e-3, 1.0, 1e3):
            d = scale * base.values
            design = DesignMatrix(conditions=base.conditions, values=d)
            b = fit_lasso(data, design, alpha_lasso=alpha, iterations=500).values
            grad = -2.0 * d.T @ (data.responses - d @ b)
            nz = b != 0
            assert np.all(np.abs(grad[nz] + alpha * np.sign(b[nz])) <= 1e-6 * alpha)
            assert np.all(np.abs(grad[~nz]) <= alpha * (1 + 1e-6))

    @pytest.mark.parametrize("iterations", [0, -5])
    def test_nonpositive_iterations_rejected(self, iterations):
        data, design, _ = make_problem()
        with pytest.raises(DrslError, match=f"lasso iterations must be >= 1, got {iterations}"):
            fit_lasso(data, design, alpha_lasso=0.9, iterations=iterations)


class TestFitLrsl:
    def test_fixed_seed_determinism(self):
        # the exact solve draws nothing: the seed and the kernel loop's
        # settings leave the result as it is
        pairs = [make_problem(seed=s)[:2] for s in range(2)]
        a = fit_lrsl(pairs, FitConfig(m1=2, m2=20, batch_size=20, seed=5))
        b = fit_lrsl(pairs, FitConfig(m1=2, m2=20, batch_size=20, seed=5))
        c = fit_lrsl(pairs, FitConfig(m1=0, m2=3, eta=0.5, batch_size=40, seed=6))
        np.testing.assert_array_equal(a.signatures.values, b.signatures.values)
        np.testing.assert_array_equal(a.signatures.values, c.signatures.values)

    def test_subject_fits_are_the_exact_elastic_net(self):
        pairs = [make_problem(t=60, seed=s)[:2] for s in (31, 32)]
        cfg = FitConfig(alpha=3.0)
        group = fit_lrsl(pairs, cfg)
        for (data, design), sub in zip(pairs, group.subject_fits):
            expected = signature_step(np.zeros((3, 6)), design.values, data.responses, 3.0)
            np.testing.assert_array_equal(sub.signatures.values, expected)
            np.testing.assert_array_equal(sub.mapped_responses, data.responses)
            assert sub.params is None
            assert sub.signatures.conditions == design.conditions
        mean = np.mean([s.signatures.values for s in group.subject_fits], axis=0)
        np.testing.assert_array_equal(group.signatures.values, mean)

    def test_shrinks_regularizer_value_below_glm(self):
        data, design, _ = make_problem(t=80, v=6, noise=0.3, seed=40)
        glm_r = regularizer(fit_glm(data, design).values, 10.0)
        cfg = FitConfig(m1=10, m2=100, batch_size=50, seed=2)
        group = fit_lrsl([(data, design)], cfg)
        assert regularizer(group.signatures.values, 10.0) < glm_r
