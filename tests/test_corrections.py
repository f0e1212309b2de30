"""Correction function formulas, the catalog, and the gate identity."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dcs import (
    FunctionSet,
    TriangularMembership,
    ValidationError,
    apply_selection,
    default_function_set,
    eval_membership,
    eval_weight,
    heaviside,
    predict,
)
from dcs.corrections import (
    MAX_WEIGHTS,
    load_catalog,
    save_catalog,
    validate_selection,
)

from conftest import make_dataset

EXACT = 1e-12


def test_heaviside_boundary_and_signs():
    assert heaviside(0.0) == 1
    assert heaviside(-1.0) == 0
    assert heaviside(3.5) == 1


class TestMembershipFormula:
    def test_interior_rising_edge(self):
        f = TriangularMembership(0.2, 0.5, 0.8)
        assert abs(eval_membership(f, 0.35) - 0.5) <= EXACT

    def test_left_shoulder_special_case(self):
        f = TriangularMembership(0.0, 0.0, 0.6)
        assert abs(eval_membership(f, 0.3) - 0.5) <= EXACT

    def test_right_shoulder_special_case(self):
        f = TriangularMembership(0.4, 1.0, 1.0)
        assert abs(eval_membership(f, 0.7) - 0.5) <= EXACT

    def test_dont_change_identity(self):
        f = TriangularMembership(0.0, 1.0, 1.0)
        assert eval_membership(f, 0.37) == 0.37

    def test_left_shoulder_full_at_zero(self):
        # the inversion shape maps certainty-of-absence to full membership
        f = TriangularMembership(0.0, 0.0, 0.4)
        assert eval_membership(f, 0.0) == 1.0
        assert eval_membership(f, 0.4) == 0.0
        assert eval_membership(f, 0.8) == 0.0

    def test_outside_support_is_zero(self):
        f = TriangularMembership(0.2, 0.5, 0.8)
        assert eval_membership(f, 0.1) == 0.0
        assert eval_membership(f, 0.9) == 0.0
        assert eval_membership(f, 0.2) == 0.0  # p <= a edge

    def test_peak_value_is_one(self):
        f = TriangularMembership(0.2, 0.5, 0.8)
        assert abs(eval_membership(f, 0.5) - 1.0) <= EXACT

    def test_array_input_matches_scalar(self):
        f = TriangularMembership(0.1, 0.4, 0.9)
        grid = np.linspace(0.0, 1.0, 101)
        vec = eval_membership(f, grid)
        for p, v in zip(grid, vec):
            assert eval_membership(f, float(p)) == v

    def test_rejects_p_outside_unit_interval(self):
        f = TriangularMembership(0.2, 0.5, 0.8)
        with pytest.raises(ValidationError):
            eval_membership(f, 1.5)
        with pytest.raises(ValidationError):
            eval_membership(f, -0.1)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValidationError):
            TriangularMembership(0.5, 0.5, 0.5)
        with pytest.raises(ValidationError):
            TriangularMembership(0.6, 0.5, 0.8)


class TestWeightFormula:
    def test_midrange_factor(self):
        assert abs(eval_weight(34, 19, 30, 0.6) - 0.3) <= EXACT

    def test_unit_factor_is_identity(self):
        assert eval_weight(49, 19, 30, 0.42) == 0.42

    def test_smallest_factor(self):
        assert abs(eval_weight(20, 19, 30, 0.9) - 0.03) <= EXACT

    def test_rejects_index_outside_weight_range(self):
        with pytest.raises(ValidationError):
            eval_weight(19, 19, 30, 0.5)
        with pytest.raises(ValidationError):
            eval_weight(50, 19, 30, 0.5)

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_linearity(self, p, alpha):
        lhs = eval_weight(25, 19, 30, alpha * p)
        rhs = alpha * eval_weight(25, 19, 30, p)
        assert abs(lhs - rhs) <= 1e-12


@st.composite
def memberships(draw):
    a = draw(st.floats(0.0, 1.0, allow_nan=False))
    b = draw(st.floats(a, 1.0, allow_nan=False))
    c = draw(st.floats(b, 1.0, allow_nan=False))
    if a == b == c:
        c = min(1.0, c + 0.5) if c < 1.0 else c
        a = max(0.0, a - 0.5)
    return TriangularMembership(a, b, c)


@given(memberships(), st.floats(0.0, 1.0, allow_nan=False))
def test_membership_output_in_unit_interval(f, p):
    v = eval_membership(f, p)
    assert 0.0 <= v <= 1.0


def test_membership_continuity_on_dense_grid():
    # piecewise-linear closed form sampled on a 1000-point grid: adjacent
    # values may differ by at most the steepest slope times the step
    fs = default_function_set()
    grid = np.linspace(0.0, 1.0, 1000)
    for f in fs.memberships:
        if f.a < f.b < f.c:
            slopes = [1.0 / (f.b - f.a), 1.0 / (f.c - f.b)]
        elif f.a == f.b:
            slopes = [1.0 / f.c]
        else:
            slopes = [1.0 / (1.0 - f.a)]
        bound = max(slopes) * (grid[1] - grid[0]) + 1e-9
        vals = eval_membership(f, grid)
        assert np.all(np.abs(np.diff(vals)) <= bound)


class TestFunctionSetGates:
    def test_gate_exclusivity_identity_over_catalog(self):
        fs = default_function_set()
        d_f = len(fs.memberships)
        for k in range(1, fs.size + 1):
            assert heaviside(d_f - k) + heaviside(k - d_f - 1) == 1

    def test_membership_index_uses_membership_branch(self, tiny_catalog):
        fs = tiny_catalog
        assert fs.apply_index(2, 0.3) == eval_membership(fs.memberships[1], 0.3)

    def test_boundary_index_activates_membership_only(self):
        fs = default_function_set()
        d_f = len(fs.memberships)
        p = 0.55
        expected = eval_membership(fs.memberships[d_f - 1], p)
        assert fs.apply_index(d_f, p) == expected

    def test_weight_index_uses_weight_branch(self, tiny_catalog):
        fs = tiny_catalog
        # index 4 of the tiny catalog is the unit weight
        assert fs.apply_index(4, 0.8) == eval_weight(4, 2, 2, 0.8)

    def test_apply_selection_mixed_row(self, tiny_catalog):
        row = np.array([0.3, 0.8])
        out = apply_selection(tiny_catalog, (2, 3), row)
        assert out[0] == eval_membership(tiny_catalog.memberships[1], 0.3)
        assert out[1] == eval_weight(3, 2, 2, 0.8)

    @given(
        st.integers(1, 49),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_apply_index_output_in_unit_interval(self, k, p):
        fs = default_function_set()
        assert 0.0 <= fs.apply_index(k, p) <= 1.0


class TestApplySelection:
    """``apply_selection`` on one row and on a matrix of rows."""

    @staticmethod
    def _matrix(m, n, seed):
        # values on a 0.05 grid, so corrected rows often tie
        rng = np.random.default_rng(seed)
        probs = np.round(rng.random((m, n)) * 20) / 20
        xi = rng.integers(1, 50, n)
        return probs, xi

    def test_row_matches_apply_index_per_class(self):
        fs = default_function_set()
        probs, xi = self._matrix(200, 5, seed=1)
        for row in probs:
            expected = [fs.apply_index(int(k), float(p)) for k, p in zip(xi, row)]
            assert apply_selection(fs, xi, row).tobytes() == (
                np.array(expected).tobytes()
            )

    @pytest.mark.parametrize("m, n, seed", [(300, 5, 2), (50, 14, 3), (0, 3, 4)])
    def test_matrix_matches_rows(self, m, n, seed):
        fs = default_function_set()
        probs, xi = self._matrix(m, n, seed)
        out = apply_selection(fs, xi, probs)
        assert out.shape == (m, n) and out.dtype == np.float64
        rows = [apply_selection(fs, xi, row) for row in probs]
        assert out.tobytes() == np.array(rows).reshape(m, n).tobytes()

    def test_matrix_argmax_is_predict(self):
        fs = default_function_set()
        probs, xi = self._matrix(400, 4, seed=5)
        ds = make_dataset(probs, np.arange(400) % 4 + 1)
        labels = np.argmax(apply_selection(fs, xi, ds.probabilities), axis=1) + 1
        assert np.array_equal(labels, predict(ds, fs, xi))

    def test_matrix_of_wrong_width_rejected(self):
        fs = default_function_set()
        probs, _ = self._matrix(10, 3, seed=6)
        with pytest.raises(ValidationError, match="2 entries, expected 3"):
            apply_selection(fs, (1, 20), probs)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_value_outside_unit_interval_rejected(self, bad):
        fs = default_function_set()
        probs, xi = self._matrix(10, 3, seed=7)
        probs[7, 2] = bad
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            apply_selection(fs, xi, probs)


class TestDefaultCatalog:
    def test_size_is_49(self):
        fs = default_function_set()
        assert fs.size == 49
        assert len(fs.memberships) == 19
        assert fs.num_weights == 30

    def test_search_space_formula_for_14_classes(self):
        fs = default_function_set()
        assert 14 * fs.size == 686

    def test_dont_change_is_index_1_and_neutral(self):
        fs = default_function_set()
        assert fs.dont_change_index == 1
        for p in np.linspace(0.0, 1.0, 23):
            assert fs.apply_index(1, float(p)) == float(p)

    def test_dont_change_neutrality_elementwise(self):
        fs = default_function_set()
        row = np.array([0.12, 0.55, 0.33])
        out = apply_selection(fs, (1, 1, 1), row)
        assert np.array_equal(out, row)

    def test_interior_triangles(self):
        fs = default_function_set()
        for i in range(1, 10):
            f = fs.memberships[i]
            b = i / 10
            assert f.b == pytest.approx(b, abs=EXACT)
            assert f.a == pytest.approx(max(0.0, b - 0.25), abs=EXACT)
            assert f.c == pytest.approx(min(1.0, b + 0.25), abs=EXACT)

    def test_shoulder_blocks(self):
        fs = default_function_set()
        left = [(f.a, f.b, f.c) for f in fs.memberships[10:15]]
        assert left == [(0.0, 0.0, c) for c in (0.2, 0.4, 0.6, 0.8, 1.0)]
        right = [(f.a, f.b, f.c) for f in fs.memberships[15:19]]
        assert right == [(a, 1.0, 1.0) for a in (0.2, 0.4, 0.6, 0.8)]

    def test_index_kinds_partition(self):
        fs = default_function_set()
        kinds = [fs.index_kind(k) for k in range(1, fs.size + 1)]
        assert kinds[:19] == ["membership"] * 19
        assert kinds[19:] == ["weight"] * 30

    def test_describe_index(self):
        fs = default_function_set()
        assert fs.describe_index(13) == {"kind": "membership", "a": 0.0, "b": 0.0, "c": 0.6}
        desc = fs.describe_index(48)
        assert desc["kind"] == "weight"
        assert abs(desc["factor"] - 29 / 30) <= EXACT

    def test_weight_factors_are_equally_spaced(self):
        fs = default_function_set()
        for j in range(1, 31):
            assert abs(fs.weight_factor(19 + j) - j / 30) <= EXACT


def test_validate_selection_bounds(tiny_catalog):
    assert validate_selection(tiny_catalog, (1, 4)) == (1, 4)
    with pytest.raises(ValidationError):
        validate_selection(tiny_catalog, (0, 1))
    with pytest.raises(ValidationError):
        validate_selection(tiny_catalog, (1, 5))
    with pytest.raises(ValidationError):
        validate_selection(tiny_catalog, (1, 4), num_classes=3)


def test_catalog_round_trip(tmp_path, tiny_catalog):
    path = tmp_path / "catalog.json"
    save_catalog(tiny_catalog, path)
    loaded = load_catalog(path)
    assert loaded == tiny_catalog
    assert loaded.dont_change_index == tiny_catalog.dont_change_index


def test_catalog_without_dont_change_rejected():
    with pytest.raises(ValidationError):
        FunctionSet(
            memberships=(TriangularMembership(0.0, 0.0, 0.6),),
            num_weights=2,
        )


def test_num_weights_bound():
    dont_change = (TriangularMembership(0.0, 1.0, 1.0),)
    assert FunctionSet(dont_change, num_weights=MAX_WEIGHTS).size == (
        MAX_WEIGHTS + 1
    )
    with pytest.raises(ValidationError, match="num_weights"):
        FunctionSet(dont_change, num_weights=MAX_WEIGHTS + 1)
