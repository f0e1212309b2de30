"""Correction function formulas, the catalog, and the gate identity."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcs import (
    AnnealConfig,
    FunctionSet,
    ObjectiveWeights,
    PreconditionError,
    TriangularMembership,
    ValidationError,
    anneal,
    apply_selection,
    default_function_set,
    eval_membership,
    eval_weight,
    heaviside,
    predict,
)
from dcs.corrections import (
    MAX_WEIGHTS,
    MODES,
    kind_bucket,
    load_catalog,
    mode_indices,
    normalize_allowed,
    save_catalog,
    validate_selection,
)

from conftest import BAD_ALLOWED, make_dataset

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

    @pytest.mark.parametrize(
        "abc",
        [
            ("0", "1", "1"),
            (0.0, "0.5", 1.0),
            (False, True, True),
            (np.bool_(False), 1.0, 1.0),
            (None, 1.0, 1.0),
        ],
    )
    def test_rejects_non_numeric_vertices(self, abc):
        # a string compared with a float would escape as a bare TypeError;
        # the message names the first vertex that is not a float
        with pytest.raises(ValidationError) as info:
            TriangularMembership(*abc)
        name, value = next(
            (n, v) for n, v in zip("abc", abc) if not isinstance(v, float)
        )
        assert str(info.value) == f"field {name!r} must be float, got {value!r}"

    def test_numpy_vertices_accepted(self):
        f = TriangularMembership(np.float32(0.0), np.int64(1), np.float64(1.0))
        assert f.is_dont_change


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

    @pytest.mark.parametrize(
        "k, message",
        [
            # not the weight 1.5 / 30, which the catalog does not hold
            (20.5, "selection values must be integers, got 20.5 at entry 1"),
            (True, "selection values must be integers, got True at entry 1"),
            (50, "selection value out of range 1..49 at entry 1: 50"),
            (19, "weight index 19 outside 20..49"),
        ],
    )
    def test_index_follows_the_selection_rule(self, k, message):
        with pytest.raises(ValidationError) as info:
            eval_weight(k, 19, 30, 0.9)
        assert str(info.value) == message

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


# every stock membership, and two with a = b > 0 whose peak a kernel
# half-open at b would drop to 0
VERTEX_CASES = [
    (f.a, f.b, f.c) for f in default_function_set().memberships
] + [(0.3, 0.3, 0.6), (0.25, 0.25, 0.5)]
# a grid with both signed zeros, the smallest subnormal and every stock vertex
SIGNED_GRID = np.concatenate(
    [[-0.0, 0.0, 5e-324, 1.0], np.linspace(0.0, 1.0, 1001)]
    + [np.array(v) for v in VERTEX_CASES]
)

# the smallest subnormal, one mid-range subnormal and the smallest normal
SUBNORMALS = (5e-324, 1e-310, 2.2250738585072014e-308)


def _masked_membership(f, p):
    """The membership formula as masked writes, each side over its span."""
    out = np.zeros_like(p)
    if f.b > f.a:
        m = (p >= f.a) & (p <= f.b)
        out[m] = (p[m] - f.a) / (f.b - f.a)
    if f.c > f.b:
        m = (p >= f.b) & (p <= f.c)
        out[m] = (f.c - p[m]) / (f.c - f.b)
    return out


class TestMembershipVertices:
    @pytest.mark.parametrize("abc", VERTEX_CASES, ids=str)
    def test_peak_is_one(self, abc):
        f = TriangularMembership(*abc)
        assert eval_membership(f, f.b) == 1.0

    @pytest.mark.parametrize("abc", VERTEX_CASES, ids=str)
    def test_feet_and_outside_are_zero(self, abc):
        f = TriangularMembership(*abc)
        if f.a < f.b:
            assert eval_membership(f, f.a) == 0.0
        if f.c > f.b:
            assert eval_membership(f, f.c) == 0.0
        outside = (SIGNED_GRID < f.a) | (SIGNED_GRID > f.c)
        assert np.all(eval_membership(f, SIGNED_GRID)[outside] == 0.0)

    @given(memberships())
    def test_vertices_of_any_membership(self, f):
        assert eval_membership(f, f.b) == 1.0
        assert f.a == f.b or eval_membership(f, f.a) == 0.0
        assert f.c == f.b or eval_membership(f, f.c) == 0.0

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_mask_formula_bit_for_bit(self, data):
        # the stock catalog brings the shoulders, a = b = 0 and b = c = 1
        f = data.draw(
            st.one_of(
                st.sampled_from(VERTEX_CASES).map(
                    lambda abc: TriangularMembership(*abc)
                ),
                memberships(),
            ),
            label="f",
        )
        special = st.sampled_from((f.a, f.b, f.c, 0.0, -0.0, 1.0) + SUBNORMALS)
        p = np.array(
            data.draw(
                st.lists(
                    st.one_of(special, st.floats(0.0, 1.0)),
                    min_size=1,
                    max_size=40,
                ),
                label="p",
            )
        )
        expected = _masked_membership(f, p)
        assert eval_membership(f, p).tobytes() == expected.tobytes()
        scalar = eval_membership(f, float(p[0]))
        assert np.float64(scalar).tobytes() == expected[0].tobytes()

    def test_dont_change_is_bitwise_identity(self):
        f = TriangularMembership(0.0, 1.0, 1.0)
        out = eval_membership(f, SIGNED_GRID)
        assert out.tobytes() == SIGNED_GRID.tobytes()

    @pytest.mark.parametrize("c", (0.2, 0.4, 0.6, 0.8, 1.0))
    def test_falling_shoulder_closed_form(self, c):
        p = SIGNED_GRID[SIGNED_GRID <= c]
        out = eval_membership(TriangularMembership(0.0, 0.0, c), p)
        assert out.tobytes() == ((c - p) / c).tobytes()

    @pytest.mark.parametrize("a", (0.2, 0.4, 0.6, 0.8))
    def test_rising_shoulder_closed_form(self, a):
        p = SIGNED_GRID[SIGNED_GRID >= a]
        out = eval_membership(TriangularMembership(a, 1.0, 1.0), p)
        assert out.tobytes() == ((p - a) / (1 - a)).tobytes()


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

    @pytest.mark.parametrize(
        "bad, message",
        [
            (-0.1, "probability out of [0, 1] at row 8, class 3: -0.1"),
            (1.5, "probability out of [0, 1] at row 8, class 3: 1.5"),
            (math.nan, "non-finite probability at row 8, class 3"),
        ],
    )
    def test_value_outside_unit_interval_rejected(self, bad, message):
        fs = default_function_set()
        probs, xi = self._matrix(10, 3, seed=7)
        probs[7, 2] = bad
        with pytest.raises(ValidationError) as info:
            apply_selection(fs, xi, probs)
        assert str(info.value) == message


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

    @pytest.mark.parametrize(
        "k, message",
        [
            # a membership index gave a negative factor, 20.5 the weight
            # 1.5 / 30 the catalog does not hold and True the factor -0.6
            (3, "weight index 3 outside 20..49"),
            (20.5, "selection values must be integers, got 20.5 at entry 1"),
            (True, "selection values must be integers, got True at entry 1"),
            (50, "selection value out of range 1..49 at entry 1: 50"),
        ],
    )
    def test_weight_factor_takes_weight_indices_only(self, k, message):
        with pytest.raises(ValidationError) as info:
            default_function_set().weight_factor(k)
        assert str(info.value) == message

    def test_weight_factor_takes_numpy_ints(self):
        assert default_function_set().weight_factor(np.int64(20)) == 1 / 30


# scalar catalog indices of every kind a caller might pass: ints about the
# catalog's ends and out past +-2^64, floats (1.0 and 20.5 among them),
# bools, None, strings and numpy ints
SCALAR_INDICES = st.one_of(
    st.integers(-1, 51),
    st.sampled_from([2**64, -(2**64), 1.0, 20.5, 13.0]),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.integers(0, 50).map(np.int64),
    st.integers(0, 50).map(np.uint8),
)


class TestCatalogIndexRule:
    """Every scalar catalog index passes ``validate_selection``'s rule: a
    float, even 1.0, a bool, None or a string is rejected, not read as the
    int it equals or truncates to, and never with a TypeError."""

    @pytest.mark.parametrize(
        "method, k",
        [
            ("apply_index", 20.5),
            ("apply_index", 1.5),
            ("describe_index", True),
            ("index_kind", np.float64(2.0)),
        ],
    )
    def test_non_integer_rejected(self, method, k):
        fs = default_function_set()
        args = (k, 0.5) if method == "apply_index" else (k,)
        with pytest.raises(ValidationError) as info:
            getattr(fs, method)(*args)
        assert str(info.value) == (
            f"selection values must be integers, got {k!r} at entry 1"
        )

    def test_out_of_range_message(self):
        with pytest.raises(ValidationError) as info:
            default_function_set().describe_index(50)
        assert str(info.value) == "selection value out of range 1..49 at entry 1: 50"

    def test_kind_bucket_checks_before_dont_change(self):
        fs = default_function_set()
        assert kind_bucket(fs, 1) == "dont_change"
        with pytest.raises(ValidationError, match="got 1.0 at entry 1"):
            kind_bucket(fs, 1.0)

    @pytest.mark.parametrize("allowed, message", BAD_ALLOWED)
    def test_allowed_indices_follow_the_rule(self, allowed, message):
        with pytest.raises(ValidationError) as info:
            normalize_allowed(default_function_set(), allowed)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "allowed",
        [(), [], np.array([], dtype=np.int64)],
        ids=["tuple", "list", "array"],
    )
    @pytest.mark.parametrize(
        "door",
        [
            lambda ds, fs, allowed: normalize_allowed(fs, allowed),
            lambda ds, fs, allowed: anneal(
                ds, fs, ObjectiveWeights(), AnnealConfig(seed=0),
                allowed_indices=allowed,
            ),
        ],
        ids=["normalize_allowed", "anneal"],
    )
    def test_empty_allowed_set_refused(self, four_row_dataset, door, allowed):
        with pytest.raises(PreconditionError) as info:
            door(four_row_dataset, default_function_set(), allowed)
        assert str(info.value) == "allowed index set is empty"

    @settings(deadline=None, max_examples=100)
    @given(
        others=st.lists(
            memberships().filter(lambda f: not f.is_dont_change), max_size=24
        ),
        data=st.data(),
        num_weights=st.integers(1, 60),
    )
    def test_every_mode_passes_the_rule(self, others, data, num_weights):
        # no command can raise the rule's error for its allowed set: each
        # passes mode_indices, which must pass normalize_allowed unchanged
        at = data.draw(st.integers(0, len(others)))
        fs = FunctionSet(
            (*others[:at], TriangularMembership(0.0, 1.0, 1.0), *others[at:]),
            num_weights,
        )
        assert fs.dont_change_index == at + 1
        for mode in MODES:
            indices = mode_indices(fs, mode)
            assert normalize_allowed(fs, indices) == indices
            assert fs.dont_change_index in indices

    @settings(deadline=None, max_examples=300)
    @given(v=SCALAR_INDICES)
    def test_one_rule_for_every_scalar_caller(self, v):
        fs = default_function_set()
        try:
            (k,) = validate_selection(fs, (v,))
        except ValidationError:
            k = None
        callers = {
            "index_kind": lambda: fs.index_kind(v),
            "describe_index": lambda: fs.describe_index(v),
            "apply_index": lambda: fs.apply_index(v, 0.5),
            "kind_bucket": lambda: kind_bucket(fs, v),
            "normalize_allowed": lambda: normalize_allowed(fs, (v,)),
            "eval_weight": lambda: eval_weight(v, 19, 30, 0.5),
        }
        outcomes = {}
        for name, call in callers.items():
            try:
                outcomes[name] = call()
            except ValidationError:
                outcomes[name] = None
        if k is None:
            assert set(outcomes.values()) == {None}
            return
        kind = "membership" if k <= 19 else "weight"
        assert outcomes == {
            "index_kind": kind,
            "describe_index": fs.describe_index(k),
            "apply_index": fs.apply_index(k, 0.5),
            "kind_bucket": "dont_change" if k == 1 else kind,
            "normalize_allowed": (k,),
            "eval_weight": None if k <= 19 else (k - 19) / 30 * 0.5,
        }


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


@pytest.mark.parametrize("num_weights", [2.5, float("nan"), True, "3", None])
def test_num_weights_must_be_an_integer(num_weights):
    # 2.5 gave size 3.5 and a TypeError later; NaN and True constructed
    dont_change = (TriangularMembership(0.0, 1.0, 1.0),)
    with pytest.raises(ValidationError) as info:
        FunctionSet(dont_change, num_weights=num_weights)
    assert str(info.value) == (
        f"field 'num_weights' must be int, got {num_weights!r}"
    )


def test_numpy_int_num_weights_accepted():
    dont_change = (TriangularMembership(0.0, 1.0, 1.0),)
    assert FunctionSet(dont_change, num_weights=np.int64(3)).size == 4
