import json
import tracemalloc
from math import comb

import numpy as np
import pytest

import oracles
from weitzlab import curvature as curv
from weitzlab import so_algebra as so
from weitzlab.report import digest


def ricci_by_index_loops(op):
    """Independent Ricci oracle: explicit index sums, no einsum."""
    t = oracles.to_tensor(op)
    n = op.n
    out = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            out[i, k] = sum(t[i, j, k, j] for j in range(n))
    return out


def sym_coords(n):
    """Frobenius-orthonormal basis of the symmetric N x N matrices."""
    npairs = n * (n - 1) // 2
    mats = []
    for a in range(npairs):
        for b in range(a, npairs):
            m = np.zeros((npairs, npairs))
            if a == b:
                m[a, a] = 1.0
            else:
                m[a, b] = m[b, a] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    return np.array(mats)


def _projection_rank(n):
    """Rank of the closed-form Bianchi projection, an orthogonal projector
    on the symmetric matrices: its trace over their orthonormal basis,
    projected a hundred matrices at a time."""
    coords = sym_coords(n)
    trace = 0.0
    for lo in range(0, len(coords), 100):
        part = coords[lo : lo + 100]
        proj = curv.bianchi_project(curv.CurvatureOperator(n=n, matrix=part, bianchi_flag=False))
        trace += float(np.sum(proj.matrix * part))
    return round(trace)


def svd_nullspace(a, rtol=1e-10):
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > rtol * s[0]))
    return vh[rank:].T


def bianchi_projector_oracle(n):
    """Projector, in symmetric coordinates, onto the SVD nullspace of the
    cyclic sum T_ijkl + T_jkil + T_kijl written with explicit transposes."""
    coords = sym_coords(n)
    cols = []
    for m in coords:
        t = oracles.to_tensor(curv.CurvatureOperator(n=n, matrix=m, bianchi_flag=False))
        cyc = t + t.transpose(2, 0, 1, 3) + t.transpose(1, 2, 0, 3)
        cols.append(cyc.ravel())
    null = svd_nullspace(np.array(cols).T)
    return coords, null @ null.T


def einstein_projector_oracle(n):
    """Projector onto {Bianchi, trace-free Ricci = 0} from a stacked SVD."""
    coords, proj_b = bianchi_projector_oracle(n)
    rows = []
    for m in coords:
        ric = ricci_by_index_loops(curv.CurvatureOperator(n=n, matrix=m, bianchi_flag=False))
        rows.append((ric - np.trace(ric) / n * np.eye(n)).ravel())
    null = svd_nullspace(np.vstack([np.eye(len(coords)) - proj_b, np.array(rows).T]))
    return coords, null @ null.T


def apply_in_coords(coords, proj, matrix):
    vec = proj @ np.einsum("kab,ab->k", coords, matrix)
    return np.einsum("k,kab->ab", vec, coords)


class TestTensorConversion:
    def test_zero(self):
        op = curv.CurvatureOperator(n=3, matrix=np.zeros((3, 3)), bianchi_flag=True)
        assert np.linalg.norm(oracles.to_tensor(op)) == 0.0
        assert np.linalg.norm(oracles.pair_matrix(np.zeros((3, 3, 3, 3)))) == 0.0

    def test_constant_sectional_curvature_two_gives_identity(self):
        # oracle: build the tensor entrywise in the test
        n = 4
        t = np.zeros((n, n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        t[i, j, k, l] = 2.0 * ((i == k) * (j == l) - (i == l) * (j == k))
        assert np.allclose(oracles.pair_matrix(t), np.eye(6), atol=1e-14)
        assert np.array_equal(oracles.to_tensor(curv.sphere(n)), t)

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_round_trip_random(self, n):
        for seed in range(20):
            op = curv.random_symmetric(n, seed)
            back = oracles.pair_matrix(oracles.to_tensor(op))
            assert np.allclose(back, op.matrix, atol=1e-12)

    @pytest.mark.parametrize("n", (2, 3, 4, 7))
    def test_matches_pair_list_loops(self, n):
        # reference: entrywise assignment over the lexicographic pair list
        op = curv.random_symmetric(n, 3)
        want = np.zeros((n, n, n, n))
        for a, (i, j) in enumerate(so.pair_list(n)):
            for b, (k, l) in enumerate(so.pair_list(n)):
                v = 2.0 * op.matrix[a, b]
                want[i, j, k, l], want[j, i, k, l] = v, -v
                want[i, j, l, k], want[j, i, l, k] = -v, v
        assert np.array_equal(oracles.to_tensor(op), want)
        assert np.array_equal(oracles.pair_matrix(want), op.matrix)

    def test_tensor_round_trip_from_tensor_side(self):
        op = curv.random_curvature(4, 0)
        t = oracles.to_tensor(op)
        back = curv.CurvatureOperator(n=4, matrix=oracles.pair_matrix(t), bianchi_flag=True)
        assert np.allclose(oracles.to_tensor(back), t, atol=1e-12)

    def test_operator_constructor_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            curv.curvature_operator(3, np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]))

    def test_operator_constructor_symmetrises_in_one_new_array(self):
        # m - m.T and then (m + m.T) / 2 share one buffer: beside the input,
        # the traced peak is that one N^2 array, and the result is the
        # input's exact symmetrisation, with the input left as it was
        m = curv.random_symmetric(30, 3).matrix.copy()
        m[0, 1] += 1e-15
        given = m.copy()
        tracemalloc.start()
        op = curv.curvature_operator(30, m, bianchi=False)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert np.array_equal(op.matrix, (given + given.T) / 2.0) and np.array_equal(m, given)
        assert m.nbytes <= peak < 1.5 * m.nbytes


class TestBianchi:
    def test_constant_curvature_unchanged(self):
        op = curv.sphere(4)
        proj = curv.bianchi_project(op)
        assert np.allclose(proj.matrix, op.matrix, atol=1e-12)

    def test_dimension_n4_is_20(self):
        assert _projection_rank(4) == 20

    def test_n3_everything_is_bianchi(self):
        assert _projection_rank(3) == 6
        op = curv.random_symmetric(3, 1)
        assert curv.bianchi_residual_matrix(op.n, op.matrix) <= 1e-12

    def test_idempotent(self):
        op = curv.random_symmetric(5, 2)
        once = curv.bianchi_project(op)
        twice = curv.bianchi_project(once)
        assert np.allclose(once.matrix, twice.matrix, atol=1e-12)

    def test_projection_is_orthogonal(self):
        # <P x, y> = <x, P y> in the Frobenius pairing
        rng = np.random.default_rng(3)
        a = curv.random_symmetric(4, 10)
        b = curv.random_symmetric(4, 11)
        pa = curv.bianchi_project(a).matrix
        pb = curv.bianchi_project(b).matrix
        lhs = float(np.sum(pa * b.matrix))
        rhs = float(np.sum(a.matrix * pb))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_closed_form_matches_svd_oracle(self, n):
        coords, proj = bianchi_projector_oracle(n)
        assert round(float(np.trace(proj))) == n * n * (n * n - 1) // 12
        for seed in range(3):
            op = curv.random_symmetric(n, seed)
            want = apply_in_coords(coords, proj, op.matrix)
            got = curv.bianchi_project(op)
            assert got.bianchi_flag
            assert np.max(np.abs(got.matrix - want)) <= 1e-13
            # idempotent, and self-adjoint in the Frobenius pairing
            assert np.max(np.abs(curv.bianchi_project(got).matrix - got.matrix)) <= 1e-13
            other = curv.random_symmetric(n, seed + 100)
            lhs = float(np.sum(got.matrix * other.matrix))
            rhs = float(np.sum(op.matrix * curv.bianchi_project(other).matrix))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_dimension_formula(self, n):
        # Sym^2(Lambda^2) minus its Lambda^4 component
        npairs = n * (n - 1) // 2
        assert _projection_rank(n) == npairs * (npairs + 1) // 2 - comb(n, 4) == n * n * (n * n - 1) // 12

    def test_random_curvature_at_n16(self):
        for seed in (1, 2):
            op = curv.random_curvature(16, seed)
            assert curv.bianchi_residual_matrix(op.n, op.matrix) <= 1e-12

    @pytest.mark.parametrize("n", (4, 5, 6, 7, 8))
    def test_random_curvature_satisfies_bianchi(self, n):
        op = curv.random_curvature(n, 3)
        assert curv.bianchi_residual_matrix(op.n, op.matrix) <= 1e-10
        assert op.bianchi_flag

    def test_random_symmetric_ensemble(self):
        # (G + G^T) / 2 for a standard normal G: diagonal variance 1, the
        # rest 1/2, over 20000 seeds (standard errors 0.010 and 0.005)
        m = curv.random_symmetric(4, range(20_000)).matrix
        diag, off = m[:, 0, 0], m[:, 1, 4]
        assert abs(diag.mean()) <= 0.05 and abs(diag.var() - 1.0) <= 0.06
        assert abs(off.mean()) <= 0.05 and abs(off.var() - 0.5) <= 0.03
        assert np.array_equal(m, m.swapaxes(1, 2))

    def test_random_deterministic(self):
        a = curv.random_curvature(4, 42)
        b = curv.random_curvature(4, 42)
        assert np.array_equal(a.matrix, b.matrix)


class TestClosedFormsAgainstTensorOracles:
    """The pair-coordinate projection, residual, Ricci and scalar curvature
    against the n^4 tensor forms: T - Alt(T) over 24 permutations, the
    cyclic sum, and an einsum contraction."""

    SEEDS = (0, 5, 17)

    @staticmethod
    def _bound(op):
        return 1e-14 * max(1.0, float(np.linalg.norm(op.matrix)))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_single_operators(self, n):
        for seed in self.SEEDS:
            for op in (curv.random_symmetric(n, seed), curv.random_curvature(n, seed)):
                bound = self._bound(op)
                assert np.abs(curv.bianchi_project(op).matrix - oracles.bianchi_project(op)).max() <= bound
                want = oracles.ricci(op)
                assert np.abs(curv.ricci(op) - want).max() <= bound
                assert abs(curv.scalar(op) - np.trace(want)) <= bound
                assert abs(curv.bianchi_residual_matrix(n, op.matrix) - oracles.bianchi_residual(op)) <= 1e-14

    @pytest.mark.parametrize("n", range(2, 13))
    def test_stacks(self, n):
        stack = curv.random_symmetric(n, self.SEEDS)
        proj, ric = curv.bianchi_project(stack).matrix, curv.ricci(stack)
        want_proj, want_ric = oracles.bianchi_project(stack), oracles.ricci(stack)
        for op, p, r, wp, wr in zip(stack.unstack(), proj, ric, want_proj, want_ric):
            assert np.abs(p - wp).max() <= self._bound(op)
            assert np.abs(r - wr).max() <= self._bound(op)
            assert np.array_equal(p, curv.bianchi_project(op).matrix)
            assert np.array_equal(r, curv.ricci(op))
        drawn = curv.random_curvature(n, self.SEEDS)
        assert np.array_equal(drawn.matrix, proj)
        assert drawn.bianchi_flag

    def test_projection_leaves_its_input_alone(self):
        op = curv.random_symmetric(6, 3)
        before = op.matrix.copy()
        projected = curv.bianchi_project(op)
        assert np.array_equal(op.matrix, before)
        # any memory layout projects alike
        fortran = op._replace(matrix=np.asfortranarray(op.matrix))
        assert np.array_equal(curv.bianchi_project(fortran).matrix, projected.matrix)

    @pytest.mark.parametrize("label", ("A1", "A2", "B2", "C3", "D4", "G2"))
    def test_group_flags_agree_with_the_tensor_residual(self, label):
        op = curv.bi_invariant_group(so.simple_algebra(label))
        assert op.bianchi_flag
        assert oracles.bianchi_residual(op) <= 1e-10
        assert abs(curv.bianchi_residual_matrix(op.n, op.matrix) - oracles.bianchi_residual(op)) <= 1e-14

    @pytest.mark.parametrize("n", (3, 4, 5, 7))
    def test_file_flags_agree_with_the_tensor_residual(self, n):
        for seed in self.SEEDS:
            for op in (curv.random_symmetric(n, seed), curv.random_curvature(n, seed), curv.sphere(n)):
                loaded = curv.curvature_from_json(oracles.curvature_json(op))
                assert loaded.bianchi_flag == (oracles.bianchi_residual(loaded) <= 1e-10)
                assert loaded.bianchi_flag == (n == 3 or op.bianchi_flag)


class TestStackedOperators:
    SEEDS = (3, 4, 11, 1012)

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("draw", (curv.random_curvature, curv.random_symmetric), ids=("bianchi", "raw"))
    def test_stack_equals_per_seed_draws(self, n, draw):
        npairs = n * (n - 1) // 2
        stack = draw(n, self.SEEDS)
        assert stack.matrix.shape == (len(self.SEEDS), npairs, npairs)
        for seed, op in zip(self.SEEDS, stack.unstack()):
            alone = draw(n, seed)
            assert alone.matrix.shape == (npairs, npairs)
            assert np.array_equal(op.matrix, alone.matrix)
            assert op.bianchi_flag == alone.bianchi_flag
            assert digest(op.matrix) == digest(alone.matrix)

    def test_range_of_seeds_and_empty_stack(self):
        assert np.array_equal(curv.random_curvature(4, range(5, 8)).matrix, curv.random_curvature(4, [5, 6, 7]).matrix)
        assert curv.random_curvature(4, []).matrix.shape == (0, 6, 6)

    @pytest.mark.parametrize("n", (3, 5))
    def test_tensor_form_of_a_stack(self, n):
        # the closed forms on a stack, each operator bit-equal to its own
        # result and the stack's tensor form to each operator's
        stack = curv.random_symmetric(n, self.SEEDS)
        tensors = oracles.to_tensor(stack)
        assert tensors.shape == (len(self.SEEDS),) + (n,) * 4
        ric, proj = curv.ricci(stack), curv.bianchi_project(stack).matrix
        for t, r, p, op in zip(tensors, ric, proj, stack.unstack()):
            assert np.array_equal(t, oracles.to_tensor(op))
            assert np.array_equal(oracles.pair_matrix(t), op.matrix)
            assert np.array_equal(r, curv.ricci(op))
            assert np.array_equal(p, curv.bianchi_project(op).matrix)

    def test_projection_of_a_stack(self):
        stack = curv.random_symmetric(6, self.SEEDS)
        projected = curv.bianchi_project(stack)
        assert projected.bianchi_flag
        for op, alone in zip(projected.unstack(), stack.unstack()):
            assert np.array_equal(op.matrix, curv.bianchi_project(alone).matrix)

    def test_single_operator_unstacks_to_itself(self):
        op = curv.random_curvature(4, 1)
        [alone] = op.unstack()
        assert alone is op


class TestEinsteinProject:
    @pytest.mark.parametrize("n", (4, 5))
    def test_matches_svd_oracle(self, n):
        coords, proj = einstein_projector_oracle(n)
        for seed in range(3):
            op = curv.random_symmetric(n, seed)
            want = apply_in_coords(coords, proj, op.matrix)
            assert np.max(np.abs(curv.einstein_project(op).matrix - want)) <= 1e-13

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_kills_trace_free_ricci_and_keeps_scalar(self, n):
        op = curv.random_symmetric(n, 4)
        proj = curv.einstein_project(op)
        ric0 = curv.ricci(proj) - curv.scalar(proj) / n * np.eye(n)
        assert np.linalg.norm(ric0) <= 1e-12
        assert abs(curv.scalar(proj) - curv.scalar(op)) <= 1e-12 * max(1.0, abs(curv.scalar(op)))
        assert curv.bianchi_residual_matrix(proj.n, proj.matrix) <= 1e-12
        assert proj.bianchi_flag


class TestSphereAndRicci:
    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
    def test_sphere_is_identity(self, n):
        op = curv.sphere(n)
        assert np.array_equal(op.matrix, np.eye(n * (n - 1) // 2))
        assert op.bianchi_flag

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_sphere_ricci_and_scalar(self, n):
        op = curv.sphere(n)
        assert np.allclose(ricci_by_index_loops(op), 2 * (n - 1) * np.eye(n), atol=1e-12)
        assert np.allclose(curv.ricci(op), 2 * (n - 1) * np.eye(n), atol=1e-12)
        assert abs(curv.scalar(op) - 2 * n * (n - 1)) <= 1e-12

    def test_ricci_matches_index_oracle_on_random_input(self):
        for n in (3, 4, 5):
            op = curv.random_curvature(n, 7)
            assert np.allclose(curv.ricci(op), ricci_by_index_loops(op), atol=1e-12)

    def test_zero_operator_zero_ricci(self):
        op = curv.curvature_operator(4, np.zeros((6, 6)))
        assert np.linalg.norm(curv.ricci(op)) == 0.0


class TestBiInvariantGroup:
    def test_a1_is_identity_over_16(self):
        g = so.simple_algebra("A1")
        op = curv.bi_invariant_group(g)
        assert np.allclose(op.matrix, np.eye(3) / 16.0, atol=1e-12)

    @pytest.mark.parametrize("label", ("A1", "A2"))
    def test_ricci_quarter_and_scalar(self, label):
        g = so.simple_algebra(label)
        op = curv.bi_invariant_group(g)
        assert np.allclose(curv.ricci(op), np.eye(g.dim) / 4.0, atol=1e-10)
        assert abs(curv.scalar(op) - g.dim / 4.0) <= 1e-10

    @pytest.mark.parametrize("label", ("A1", "A2", "B2"))
    def test_positive_semidefinite(self, label):
        g = so.simple_algebra(label)
        op = curv.bi_invariant_group(g)
        assert np.min(np.linalg.eigvalsh(op.matrix)) >= -1e-12
        assert op.bianchi_flag

    @pytest.mark.parametrize("label", ("G2", "A5"))
    def test_peak_within_the_preflight_estimate(self, label):
        # the unsymmetrised R is gone before the Bianchi check, so the traced
        # peak with the check's tables built afresh stays within the
        # 8 N^2 + 190 C(d, 4) bytes of require_group (R held twice: 1.2 x)
        g = so.simple_algebra(label)
        pairs = g.dim * (g.dim - 1) // 2
        curv._pairings.cache_clear()
        tracemalloc.start()
        curv.bi_invariant_group(g)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 8 * pairs * pairs + 190 * comb(g.dim, 4)

    def test_failed_bianchi_check_raises(self, monkeypatch):
        monkeypatch.setattr(curv, "bianchi_residual_matrix", lambda n, m: 1.0)
        with pytest.raises(RuntimeError, match="A2 failed the Bianchi check"):
            curv.bi_invariant_group(so.simple_algebra("A2"))


class TestFourDimBlocks:
    def test_sphere_blocks(self):
        blocks = curv.four_dim_blocks(curv.sphere(4))
        assert np.linalg.norm(blocks.mixed) <= 1e-12
        assert abs(np.trace(blocks.wplus) - np.trace(blocks.wminus)) <= 1e-12
        assert abs(blocks.scalar_part - 24.0) <= 1e-12

    def test_reassembly(self):
        for seed in range(10):
            op = curv.random_curvature(4, seed)
            blocks = curv.four_dim_blocks(op)
            assert np.linalg.norm(blocks.reassemble() - op.matrix) <= 1e-12

    def test_einstein_iff_mixed_vanishes(self):
        for seed in range(10):
            op = curv.einstein_project(curv.random_curvature(4, seed))
            blocks = curv.four_dim_blocks(op)
            ric0 = curv.ricci(op) - curv.scalar(op) / 4.0 * np.eye(4)
            assert np.linalg.norm(ric0) <= 1e-9
            assert np.linalg.norm(blocks.mixed) <= 1e-9

    def test_mixed_to_ric0_ratio_constant(self):
        ratios = []
        for seed in range(40):
            op = curv.random_curvature(4, seed)
            blocks = curv.four_dim_blocks(op)
            ric0 = curv.ricci(op) - curv.scalar(op) / 4.0 * np.eye(4)
            denom = np.linalg.norm(ric0)
            assert denom > 1e-6  # generic samples are not Einstein
            ratios.append(np.linalg.norm(blocks.mixed) / denom)
        spread = (max(ratios) - min(ratios)) / max(ratios)
        assert spread <= 1e-6

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="n = 4"):
            curv.four_dim_blocks(curv.sphere(5))

    def test_non_bianchi_rejected(self):
        op = curv.random_symmetric(4, 0)
        assert not op.bianchi_flag
        with pytest.raises(ValueError, match="Bianchi"):
            curv.four_dim_blocks(op)

    def test_self_dual_bases_built_once_and_read_only(self):
        bp, bm = curv._self_dual_bases()
        assert curv._self_dual_bases()[0] is bp
        for basis in (bp, bm):
            assert not basis.flags.writeable
            with pytest.raises(ValueError):
                basis[0, 0] = 1.0
        blocks = curv.four_dim_blocks(curv.random_curvature(4, 1))
        assert blocks.basis_plus is bp and blocks.basis_minus is bm


class TestJsonInterface:
    def test_round_trip(self, tmp_path):
        op = curv.random_curvature(4, 5)
        payload = oracles.curvature_json(op)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(payload))
        back = curv.curvature_from_json(path.read_text())
        assert np.allclose(back.matrix, op.matrix, atol=1e-15)
        assert back.bianchi_flag

    def test_non_bianchi_flagged_on_load(self):
        op = curv.random_symmetric(4, 5)
        back = curv.curvature_from_json(oracles.curvature_json(op))
        assert not back.bianchi_flag

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            curv.curvature_from_json({"n": 3, "R": [[1]]})

    def test_wrong_normalization_rejected(self):
        payload = oracles.curvature_json(curv.sphere(3))
        payload["normalization"] = "full-tensor"
        with pytest.raises(ValueError, match="normalization"):
            curv.curvature_from_json(payload)

    def test_asymmetric_matrix_rejected(self):
        payload = oracles.curvature_json(curv.sphere(3))
        payload["R"][0][1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            curv.curvature_from_json(payload)
