import dataclasses
import json

import numpy as np
import pytest

from lftident import cli, model as model_mod
from lftident import numkit
from lftident.errors import (
    ModelFormatError,
    ModelShapeError,
    NonFiniteEntryError,
    WellPosednessViolation,
)
from lftident.model import DescriptorModel, Dims, ParameterDomain

from conftest import assembled, interior_theta, model_pool


def test_load_siso1(siso1_path):
    m = model_mod.load_model(siso1_path)
    assert m.dims == Dims(1, 1, 1, 1, 1, 1)
    assert m.time_domain == "continuous"
    assert np.allclose(m.A_xx, [[-1.0]])


def test_roundtrip_byte_identical(siso1_path):
    text = siso1_path.read_text()
    again = model_mod.dumps_model(model_mod.loads_model(text))
    assert again == text


def test_roundtrip_random_models():
    for m in model_pool(6):
        text = model_mod.dumps_model(m)
        again = model_mod.dumps_model(model_mod.loads_model(text))
        assert again == text


def test_missing_file():
    with pytest.raises(ModelFormatError):
        model_mod.load_model("/nonexistent/model.json")


def test_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ModelFormatError):
        model_mod.load_model(p)


def test_wrong_p_count(siso1_path):
    doc = json.loads(siso1_path.read_text())
    doc["P"] = doc["P"] + doc["P"]
    with pytest.raises(ModelShapeError, match="P must list q=1"):
        model_mod.loads_model(json.dumps(doc))


def test_non_square_e(siso1_path):
    doc = json.loads(siso1_path.read_text())
    doc["E"] = [[1.0, 0.0]]
    with pytest.raises(ModelShapeError, match="E must be 1x1"):
        model_mod.loads_model(json.dumps(doc))


def test_field_precise_shape_error(siso1_path):
    doc = json.loads(siso1_path.read_text())
    doc["B_xv"] = [[1.0], [0.0]]
    with pytest.raises(ModelShapeError, match="B_xv"):
        model_mod.loads_model(json.dumps(doc))


def test_non_finite_entry(siso1_path):
    doc = json.loads(siso1_path.read_text())
    doc["A_xx"] = [[1e400]]
    with pytest.raises((NonFiniteEntryError, ModelFormatError)):
        model_mod.loads_model(json.dumps(doc))


def test_bad_dims():
    with pytest.raises(ModelShapeError):
        Dims(0, 1, 1, 1, 1, 1)


def rejected_with_exit_2(path, doc, error, match):
    """``doc`` fails to load with ``error`` matching ``match``, and ``validate``
    on it, written to ``path``, exits 2 with a model error."""
    with pytest.raises(error, match=match):
        model_mod.loads_model(json.dumps(doc))
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--model", str(path)]) == cli.EXIT_MODEL


@pytest.mark.parametrize("radius", ["abc", None, [0.5], True, "2"])
def test_non_numeric_radius_is_a_format_error(siso1_path, capsys, radius):
    doc = json.loads(siso1_path.read_text())
    doc["theta_domain"]["radius"] = radius
    rejected_with_exit_2(siso1_path, doc, ModelFormatError, "theta_domain.radius must be a number")
    assert capsys.readouterr().err.startswith("model error: theta_domain.radius")


@pytest.mark.parametrize("value", [True, False, 1.0])
def test_bool_or_float_dims_are_shape_errors(siso1_path, capsys, value):
    # JSON true is a Python bool, which is an int; it is no count.
    doc = json.loads(siso1_path.read_text())
    doc["dims"]["m_x"] = value
    rejected_with_exit_2(siso1_path, doc, ModelShapeError,
                         f"dims.m_x must be a positive integer, got {value!r}")


@pytest.mark.parametrize("raw,entry", [([[True]], "true"), ([["1.5"]], '"1.5"'),
                                       ([["-1"]], '"-1"'), ([[None]], "null"),
                                       ([[-1.0, False]], "false")])
def test_non_number_matrix_entries_are_format_errors(siso1_path, capsys, raw, entry):
    # numpy would read true as 1.0, "1.5" as 1.5 and null as nan, and a bool
    # hides in a row of numbers.
    text = siso1_path.read_text()
    doc = json.loads(text)
    doc["A_xx"] = raw
    rejected_with_exit_2(siso1_path, doc, ModelFormatError,
                         f"A_xx is not a numeric matrix: entry {entry}")
    doc = json.loads(text)
    doc["P"][0] = raw
    rejected_with_exit_2(siso1_path, doc, ModelFormatError, r"P\[0\] is not a numeric matrix")


def test_integers_beyond_the_float_range(siso1_path, capsys):
    # A JSON integer literal too large for a double: the radius reads as inf,
    # a matrix entry is not numeric; neither escapes as an OverflowError.
    doc = json.loads(siso1_path.read_text())
    doc["theta_domain"]["radius"] = 10 ** 400
    rejected_with_exit_2(siso1_path, doc, ModelShapeError, "radius must be positive, got inf")
    doc = json.loads(siso1_path.read_text())
    doc["A_xx"] = [[-10 ** 400]]
    rejected_with_exit_2(siso1_path, doc, ModelFormatError, "A_xx is not a numeric matrix")


def test_domain_contains():
    # Ball semantics: sum of squares strictly below the radius.
    dom = ParameterDomain(radius=0.5)
    assert dom.contains([0.0])
    assert dom.contains([0.7]) and dom.contains(0.7)  # 0.49 < 0.5
    assert not dom.contains([0.71])  # 0.5041 >= 0.5
    box = ParameterDomain(radius=0.5, norm="box")
    assert box.contains([0.4, -0.4])
    assert not box.contains([0.6, 0.0])


@pytest.mark.parametrize("norm", ["ball", "box"])
@pytest.mark.parametrize("seed", range(4))
def test_domain_contains_a_stack_as_each_theta(norm, seed):
    # Random thetas, each scaled onto the boundary and moved one nextafter
    # step in or out per entry, plus entries whose squares overflow: the
    # stacked answer is each theta's own.
    rng = np.random.default_rng(seed)
    dom = ParameterDomain(radius=float(rng.uniform(0.1, 4.0)), norm=norm)
    q = int(rng.integers(1, 6))
    u = rng.standard_normal((40, q))
    if norm == "ball":
        edge = np.sqrt(dom.radius) * u / np.linalg.norm(u, axis=1)[:, None]
    else:
        edge = dom.radius * u / np.abs(u).max(axis=1)[:, None]
    T = np.concatenate([edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0 * edge),
                        0.5 * edge, np.full((2, q), 1e200)])
    rng.shuffle(T)
    stacked = dom.contains(T)
    each = [dom.contains(t) for t in T]
    assert stacked.dtype == bool and stacked.tolist() == each
    assert dom.contains(T[:80].reshape(40, 2, q)).tolist() == np.reshape(each[:80], (40, 2)).tolist()
    assert 0 < sum(each) < len(T)
    assert dom.contains(T[:0]).shape == (0,)


def test_assembled_matches_formula(siso1):
    for m in [siso1] + model_pool(4, start=50):
        theta = interior_theta(m, 3)
        P = m.p_of(theta)
        loop_inv = np.linalg.inv(np.eye(m.dims.m_v) - P @ m.D_zv)
        A, B, C, D = assembled(m, theta)
        assert np.allclose(A, m.A_xx + m.B_xv @ loop_inv @ P @ m.C_zx, atol=1e-12)
        assert np.allclose(B, m.B_xu + m.B_xv @ loop_inv @ P @ m.D_zu, atol=1e-12)
        assert np.allclose(C, m.C_yx + m.D_yv @ loop_inv @ P @ m.C_zx, atol=1e-12)
        assert np.allclose(D, m.D_yu + m.D_yv @ loop_inv @ P @ m.D_zu, atol=1e-12)


def test_assembled_rejects_a_near_singular_loop(siso1):
    # D_zv = 1 at theta = 1 - 1e-14 leaves I - P D_zv with sigma_min ~ 1e-14:
    # solving through it would return A ~ 1e14 instead of a guard failure.
    m = dataclasses.replace(siso1, D_zv=np.array([[1.0]]))
    with pytest.raises(WellPosednessViolation, match="sigma_min=9.99"):
        assembled(m, [1.0 - 1e-14])


class TestValidateAssumptions:
    def test_siso1_passes(self, siso1):
        rep = model_mod.validate_assumptions(siso1, [[0.0], [0.5], [-0.5]])
        assert rep.worst_loop_condition == 1.0  # D_zv = 0 makes well-posedness trivial
        assert rep.min_abs_pencil_det > 0

    def test_constructed_a2_violation(self):
        one = np.array([[1.0]])
        m = DescriptorModel(
            time_domain="continuous",
            dims=Dims(1, 1, 1, 1, 1, 1),
            E=one, A_xx=-one, B_xu=one, B_xv=one, C_yx=one, C_zx=one,
            D_yu=0 * one, D_yv=0 * one, D_zu=0 * one, D_zv=one,
            P=(one,),
            theta_domain=ParameterDomain(radius=2.0),
        )
        with pytest.raises(WellPosednessViolation):
            model_mod.validate_assumptions(m, [[1.0]])

    def test_random_models_pass(self):
        for m in model_pool(4, start=70):
            thetas = [np.zeros(m.dims.q), interior_theta(m, 1), interior_theta(m, 2)]
            rep = model_mod.validate_assumptions(m, thetas)
            assert rep.min_abs_pencil_det > 0
            assert len(rep.probe_lambdas) == 5


    def test_one_loop_guard_per_sample(self, siso1, monkeypatch):
        m = model_pool(1, start=70)[0]
        thetas = [np.zeros(m.dims.q), interior_theta(m, 1), interior_theta(m, 2)]
        calls = []
        guard = numkit.loop_guard
        monkeypatch.setattr(numkit, "loop_guard", lambda M, msg, *a: calls.append(msg) or guard(M, msg, *a))
        rep = model_mod.validate_assumptions(m, thetas)
        assert len(calls) == len(thetas)
        conds = [1.0]
        for t in thetas:
            sig = np.linalg.svd(np.eye(m.dims.m_v) - m.p_of(t) @ m.D_zv, compute_uv=False)
            conds.append(float(sig[0] / sig[-1]))
        assert rep.worst_loop_condition == max(conds)
        # The guard still names the failing sample.
        calls.clear()
        singular = dataclasses.replace(siso1, D_zv=np.array([[1.0]]))
        with pytest.raises(WellPosednessViolation,
                           match=r"^I - P\(theta\) D_zv singular at theta=\[1\.0\] \(sigma_min="):
            model_mod.validate_assumptions(singular, [[0.0], [1.0], [0.5]])
        assert len(calls) == 2
