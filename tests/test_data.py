"""Reference ODEs, the structure-preserving integrator, and dataset IO."""

import csv
import json
import math
import re

import numpy as np
import pytest

from georesnet import data, manifolds
from georesnet.errors import InvalidConfig, OffManifold
from georesnet.linalg import SMALL_ANGLE, expm_skew3, skew_from_axial

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def assert_bitwise(a, b):
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def general_flow(x0, ode, steps):
    """The general freeze-and-rotate flow, which ground_truth_flow must match bit for bit."""
    x = np.asarray(x0, dtype=float)
    h = 1.0 / steps
    for _ in range(steps):
        rot = expm_skew3(h * ode.axial_rule(x))
        x = np.einsum("...ij,...j->...i", rot, x) if ode.kind == manifolds.SPHERE2 else rot @ x
    return x


def velocity(ode, x):
    """The field the integrator follows, skew(axial_rule(x)) applied to x."""
    x = np.asarray(x, dtype=float)
    w = skew_from_axial(ode.axial_rule(x))
    if ode.kind == manifolds.SPHERE2:
        return np.einsum("...ij,...j->...i", w, x)
    return w @ x


# --- right-hand sides -------------------------------------------------------

def test_exp1_field_at_the_poles_of_its_dynamics():
    # (1,0,0) has zero rotation coordinates, so it is an equilibrium
    assert np.array_equal(velocity(data.EXP1, E1), np.zeros(3))
    # (0,1,0) sees a unit rotation about z, velocity -e1
    assert np.allclose(velocity(data.EXP1, E2), [-1.0, 0.0, 0.0], atol=1e-15)


def test_exp1_field_is_tangent_to_the_sphere():
    rng = np.random.default_rng(0)
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 1000)
    radial = np.einsum("pi,pi->p", velocity(data.EXP1, x), x)
    assert np.max(np.abs(radial)) <= 1e-15


def test_exp2_field_at_the_identity():
    # Tr(I I) + 3 = 6, so the velocity is six times the mixing skew
    expected = 6.0 * skew_from_axial(np.ones(3))
    assert np.allclose(velocity(data.EXP2, np.eye(3)), expected, atol=1e-15)


def test_exp2_coefficient_at_a_half_turn():
    # R = diag(-1,-1,1) squares to the identity, so the factor is 6 again
    r = expm_skew3(np.array([0.0, 0.0, math.pi]))
    expected = 6.0 * skew_from_axial(np.ones(3)) @ r
    assert np.allclose(velocity(data.EXP2, r), expected, atol=1e-13)


def test_exp2_axial_rule_is_its_rate_about_the_diagonal():
    x = manifolds.sample_uniform(manifolds.SO3, np.random.default_rng(3), 50)
    assert_bitwise(data.EXP2.axial_rule(x), data.EXP2.rate(x)[:, None] * np.ones(3))
    assert_bitwise(data.EXP2.axial_rule(x[0]), data.EXP2.rate(x[0]) * np.ones(3))
    assert data.EXP1.rate is None


def test_every_exp2_target_is_its_input_turned_about_the_diagonal():
    # the flow only ever rotates about n = (1,1,1)/sqrt(3), so the axial
    # vector of the relative rotation Y X0^T has no part off n
    train, test = data.generate_dataset("exp2", 100, 100, seed=2024)
    n = np.ones(3) / math.sqrt(3.0)
    for ds in (train, test):
        rel = ds.targets @ np.swapaxes(ds.inputs, -1, -2)
        axial = 0.5 * np.stack([rel[:, 2, 1] - rel[:, 1, 2], rel[:, 0, 2] - rel[:, 2, 0],
                                rel[:, 1, 0] - rel[:, 0, 1]], axis=-1)
        off_axis = axial - np.outer(axial @ n, n)
        assert np.max(np.linalg.norm(off_axis, axis=-1)) <= 1e-12


def test_exp2_targets_are_the_scalar_angle_flow_with_a_floor_near_1e_8():
    # each exp2 state is X0 turned about n = (1,1,1)/sqrt(3) by an angle phi
    # with phi' = sqrt(3) (tr((R_n(phi) X0)^2) + 3).  With R_n(phi) = a . M for
    # a = (1, sin phi, 1 - cos phi) and M = (I, K, K^2), K = skew(n), that
    # trace is the quadratic form a^T Q a, Q_ab = tr(M_a X0 M_b X0).
    train, test = data.generate_dataset("exp2", 100, 100, seed=2024)
    x0 = np.concatenate([train.inputs, test.inputs])
    y = np.concatenate([train.targets, test.targets])
    k = skew_from_axial(np.ones(3) / math.sqrt(3.0))
    basis = np.stack([np.eye(3), k, k @ k])
    mx = basis @ x0[:, None]
    quad = np.einsum("paij,pbji->pab", mx, mx)

    def coeffs(phi):
        return np.stack([np.ones_like(phi), np.sin(phi), 1.0 - np.cos(phi)], axis=-1)

    def rate(phi):
        a = coeffs(phi)
        return math.sqrt(3.0) * (np.einsum("pa,pab,pb->p", a, quad, a) + 3.0)

    def flow(steps, rk4):
        h, phi = 1.0 / steps, np.zeros(len(x0))
        for _ in range(steps):
            if not rk4:
                phi = phi + h * rate(phi)
                continue
            k1 = rate(phi)
            k2 = rate(phi + 0.5 * h * k1)
            k3 = rate(phi + 0.5 * h * k2)
            k4 = rate(phi + h * k3)
            phi = phi + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return np.einsum("pa,aij->pij", coeffs(phi), basis) @ x0

    # the dataset's own Euler steps, taken on the angle alone
    assert np.max(np.abs(flow(data.DEFAULT_STEPS, rk4=False) - y)) <= 1e-12
    exact = flow(2 ** 10, rk4=True)
    assert np.max(np.abs(flow(2 ** 9, rk4=True) - exact)) <= 1e-8
    # the MSE any net scores against the true time-one map, at best (9.2e-9)
    floor = np.sum((y - exact) ** 2) / len(y)
    assert 1e-9 <= floor <= 1e-7


def test_exp2_field_is_tangent_to_the_rotation_group():
    rng = np.random.default_rng(1)
    x = manifolds.sample_uniform(manifolds.SO3, rng, 200)
    f = velocity(data.EXP2, x)
    sym = np.swapaxes(x, -1, -2) @ f + np.swapaxes(f, -1, -2) @ x
    assert np.max(np.abs(sym)) <= 1e-13


def test_ode_lookup_is_case_insensitive():
    assert data.ode_by_id("EXP1") is data.EXP1
    assert data.ode_by_id("exp2") is data.EXP2
    with pytest.raises(InvalidConfig) as err:
        data.ode_by_id("exp9")
    assert str(err.value) == "unknown experiment 'exp9'; expected exp1 or exp2"


# --- integrator -------------------------------------------------------------

def test_flow_fixes_the_equilibrium_exactly():
    out = data.ground_truth_flow(E1[None], data.EXP1, steps=16)
    assert np.array_equal(out, E1[None])


def test_flow_rejects_bad_arguments():
    with pytest.raises(InvalidConfig):
        data.ground_truth_flow(E2[None], data.EXP1, steps=0)
    with pytest.raises(OffManifold):
        data.ground_truth_flow(2.0 * E2[None], data.EXP1, steps=16)
    with pytest.raises(OffManifold):
        data.ground_truth_flow((np.eye(3) + 0.1)[None], data.EXP2, steps=16)


def test_flow_takes_only_a_batch_of_its_own_points():
    # a (3, 3) array is three sphere points or one rotation; only the ODE's kind decides
    rng = np.random.default_rng(5)
    spheres = manifolds.sample_uniform(manifolds.SPHERE2, rng, 4)
    rotations = manifolds.sample_uniform(manifolds.SO3, rng, 4)
    for x0, ode in ((rotations, data.EXP1), (spheres, data.EXP2),
                    (spheres[0], data.EXP1), (rotations[0], data.EXP2)):
        shape = manifolds.point_shape(ode.kind)
        with pytest.raises(InvalidConfig, match=re.escape(
                f"initial states must be a batch of {ode.kind} points, shape (P,) + {shape}, "
                f"got {x0.shape}")):
            data.ground_truth_flow(x0, ode, steps=4)


def test_flow_rejects_non_finite_states():
    with pytest.raises(OffManifold):
        data.ground_truth_flow(np.array([[np.nan, 0.0, 1.0]]), data.EXP1, steps=4)
    bad = manifolds.sample_uniform(manifolds.SO3, np.random.default_rng(0), 3)
    bad[1, 0, 0] = np.nan
    with pytest.raises(OffManifold):
        data.ground_truth_flow(bad, data.EXP2, steps=4)


@pytest.mark.parametrize("experiment", ["exp1", "exp2"])
@pytest.mark.parametrize("rows,steps", [(1, 1), (1, 64), (3, 1), (3, 64), (200, 1), (200, 64),
                                        (200, 2 ** 14)])
def test_flow_is_bitwise_the_general_step(experiment, rows, steps):
    ode = data.ode_by_id(experiment)
    x = manifolds.sample_uniform(ode.kind, np.random.default_rng(steps), rows)
    assert_bitwise(data.ground_truth_flow(x, ode, steps), general_flow(x, ode, steps))


@pytest.mark.parametrize("h", [1e-7, 2.0 ** -14, 1.0])
def test_axis_rotation_is_bitwise_expm_skew3_on_both_branches(h):
    # exp2's rate lies in [2, 6], so at h = 1e-7 every angle takes the
    # series branch, and at 2^-14 (the flow's step) and 1 none does
    x = manifolds.sample_uniform(manifolds.SO3, np.random.default_rng(4), 200)
    a = h * data.EXP2.rate(x)
    want = expm_skew3(h * data.EXP2.axial_rule(x))
    assert_bitwise(data._axis_rotation(a), want)
    assert_bitwise(data._axis_rotation(a) @ x, want @ x)
    assert_bitwise(data._axis_rotation(a[0]), want[0])
    if h == 1e-7:
        assert np.all(math.sqrt(3.0) * a < SMALL_ANGLE)


def test_axis_rotation_is_bitwise_expm_skew3_in_a_batch_across_small_angle():
    a = np.geomspace(1e-3, 1e2, 400) * SMALL_ANGLE / math.sqrt(3.0)
    assert_bitwise(data._axis_rotation(a), expm_skew3(a[:, None] * np.ones(3)))


def test_flow_stays_on_the_manifold_at_any_step_count():
    rng = np.random.default_rng(2)
    x = manifolds.sample_uniform(manifolds.SPHERE2, rng, 32)
    r = manifolds.sample_uniform(manifolds.SO3, rng, 8)
    for steps in (1, 7, 256):
        out_s = data.ground_truth_flow(x, data.EXP1, steps)
        out_r = data.ground_truth_flow(r, data.EXP2, steps)
        assert np.max(manifolds.defect(manifolds.SPHERE2, out_s)) <= 1e-13
        assert np.max(manifolds.defect(manifolds.SO3, out_r)) <= 1e-12


def test_flow_matches_the_closed_form_orbit_through_e2():
    # from (0,1,0) the sphere ODE reduces to x1' = -x2^2, x2' = x1 x2 on
    # the z = 0 great circle, solved by (-tanh t, sech t, 0)
    out = data.ground_truth_flow(E2[None], data.EXP1)[0]
    analytic = np.array([-math.tanh(1.0), 1.0 / math.cosh(1.0), 0.0])
    assert np.linalg.norm(out - analytic) <= 2e-5
    assert out[2] == 0.0


def test_flow_error_halves_when_steps_double():
    outs = {k: data.ground_truth_flow(E2[None], data.EXP1, 2 ** k)
            for k in (10, 11, 13, 14)}
    coarse = np.linalg.norm(outs[10] - outs[11])
    fine = np.linalg.norm(outs[13] - outs[14])
    assert 5e-5 <= coarse <= 9e-5
    # first order: the gap between consecutive levels scales like
    # 1/steps, and the two gaps sit three doublings apart
    assert 7.5 <= coarse / fine <= 8.5


def test_rotation_flow_error_halves_when_steps_double():
    axis = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    x0 = expm_skew3(0.9 * axis)[None]
    outs = {k: data.ground_truth_flow(x0, data.EXP2, 2 ** k)
            for k in (12, 13, 14)}
    gap_c = np.linalg.norm(outs[12] - outs[13])
    gap_f = np.linalg.norm(outs[13] - outs[14])
    assert 1e-6 <= gap_f <= 5e-4
    assert 1.8 <= gap_c / gap_f <= 2.2


# --- dataset generation -----------------------------------------------------

def test_generate_dataset_shapes_and_metadata():
    train, test = data.generate_dataset("exp1", 5, 3, seed=11, steps=64)
    assert train.inputs.shape == (5, 3) and train.targets.shape == (5, 3)
    assert test.inputs.shape == (3, 3)
    assert len(train) == 5 and len(test) == 3
    assert train.metadata == {"seed": 11, "ode": "exp1", "steps": 64,
                              "horizon": [0.0, 1.0]}
    tr2, _ = data.generate_dataset("exp2", 2, 2, seed=11, steps=64)
    assert tr2.inputs.shape == (2, 3, 3)


def test_generate_dataset_is_seed_deterministic():
    a_train, a_test = data.generate_dataset("exp1", 4, 4, seed=3, steps=32)
    b_train, b_test = data.generate_dataset("exp1", 4, 4, seed=3, steps=32)
    assert np.array_equal(a_train.inputs, b_train.inputs)
    assert np.array_equal(a_train.targets, b_train.targets)
    assert np.array_equal(a_test.targets, b_test.targets)
    c_train, _ = data.generate_dataset("exp1", 4, 4, seed=4, steps=32)
    assert not np.array_equal(a_train.inputs, c_train.inputs)


def test_train_and_test_draws_are_distinct():
    train, test = data.generate_dataset("exp2", 3, 3, seed=0, steps=32)
    assert not np.array_equal(train.inputs, test.inputs)


@pytest.mark.parametrize("experiment", ["exp1", "exp2"])
def test_one_flow_for_both_splits_matches_flowing_each_alone(experiment):
    # inputs come from one stream, train first; targets are bitwise what
    # a separate flow of each split gives
    ode = data.ode_by_id(experiment)
    train, test = data.generate_dataset(experiment, 7, 5, seed=11, steps=32)
    rng = np.random.default_rng(11)
    x_train = manifolds.sample_uniform(ode.kind, rng, 7)
    x_test = manifolds.sample_uniform(ode.kind, rng, 5)
    assert np.array_equal(train.inputs, x_train)
    assert np.array_equal(test.inputs, x_test)
    assert np.array_equal(train.targets, data.ground_truth_flow(x_train, ode, 32))
    assert np.array_equal(test.targets, data.ground_truth_flow(x_test, ode, 32))
    assert train.metadata == test.metadata
    assert train.metadata is not test.metadata


def test_generated_pairs_sit_on_the_manifold():
    train, test = data.generate_dataset("exp2", 4, 2, seed=5, steps=128)
    assert train.max_defect() <= 1e-10
    assert test.max_defect() <= 1e-10


def test_generate_dataset_rejects_empty_splits():
    with pytest.raises(InvalidConfig):
        data.generate_dataset("exp1", 0, 4, seed=0)
    with pytest.raises(InvalidConfig):
        data.generate_dataset("exp1", 4, 0, seed=0)


def test_generate_dataset_rejects_a_negative_seed():
    with pytest.raises(InvalidConfig, match="seed"):
        data.generate_dataset("exp1", 4, 4, seed=-1)


def test_dataset_defaults_to_the_reference_step_count():
    train, _ = data.generate_dataset("exp1", 2, 1, seed=9)
    assert train.metadata["steps"] == 2 ** 14
    assert train.max_defect() <= 1e-10


# --- serialization ----------------------------------------------------------

def test_dataset_json_round_trip_is_bitwise(tmp_path):
    train, _ = data.generate_dataset("exp2", 3, 1, seed=21, steps=16)
    path = tmp_path / "train.json"
    data.save_dataset(train, path)
    back = data.load_dataset(path)
    assert back.kind == train.kind
    assert np.array_equal(back.inputs, train.inputs)
    assert np.array_equal(back.targets, train.targets)
    assert back.metadata == train.metadata


def saved_dataset(tmp_path, experiment):
    train, _ = data.generate_dataset(experiment, 3, 1, seed=21, steps=16)
    path = tmp_path / "train.json"
    data.save_dataset(train, path)
    return path, json.loads(path.read_text())


def rejects(path, doc, error=InvalidConfig, match=None):
    path.write_text(json.dumps(doc))
    with pytest.raises(error, match=match):
        data.load_dataset(path)


def test_load_dataset_rejects_a_wrong_rank_or_shape(tmp_path):
    for experiment, bad in (("exp1", [[1.0, 0.0]] * 3), ("exp1", [1.0, 0.0, 0.0]),
                            ("exp1", []), ("exp1", [[1.0, 0.0], [1.0]]),
                            ("exp2", [[1.0, 0.0, 0.0]] * 3),
                            ("exp2", [[[1.0, 0.0, 0.0]] * 3] * 3 + [[[1.0, 0.0]] * 3])):
        for name in ("inputs", "targets"):
            path, doc = saved_dataset(tmp_path, experiment)
            doc[name] = bad
            rejects(path, doc)


def test_load_dataset_rejects_a_pair_count_mismatch(tmp_path):
    for experiment in ("exp1", "exp2"):
        path, doc = saved_dataset(tmp_path, experiment)
        doc["targets"] = doc["targets"][:2]
        rejects(path, doc)


def test_load_dataset_rejects_missing_keys(tmp_path):
    for key in ("kind", "metadata", "inputs", "targets"):
        path, doc = saved_dataset(tmp_path, "exp2")
        del doc[key]
        rejects(path, doc)


def test_load_dataset_rejects_an_unknown_key_naming_the_file(tmp_path):
    # a misspelled key would otherwise be dropped without a word
    path, doc = saved_dataset(tmp_path, "exp1")
    rejects(path, dict(doc, targetz=doc["targets"]),
            match=re.escape(f"{path}: unknown dataset keys: ['targetz']"))


def test_load_dataset_rejects_metadata_that_is_not_an_object_naming_the_file(tmp_path):
    # save_dataset writes the generation settings as an object
    for metadata, name in ((5, "int"), ([1, "x"], "list"), ("steps", "str"), (None, "NoneType")):
        path, doc = saved_dataset(tmp_path, "exp2")
        rejects(path, dict(doc, metadata=metadata),
                match=re.escape(f"{path}: metadata must be a JSON object, got {name}"))


def test_load_dataset_rejects_non_finite_values(tmp_path):
    for bad in (float("nan"), float("inf"), None):
        path, doc = saved_dataset(tmp_path, "exp1")
        doc["targets"][1][2] = bad
        rejects(path, doc, match="train.json: targets")


def test_load_dataset_rejects_numbers_written_as_text_or_booleans(tmp_path):
    # numpy would read "1.0" as 1.0 and true as 1.0, and each point is on its manifold
    def spelled(point, spell):
        return [spelled(v, spell) for v in point] if isinstance(point, list) else spell(point)

    for experiment, point in (("exp1", [1.0, 0.0, 0.0]), ("exp2", np.eye(3).tolist())):
        for spell in (repr, bool):
            for name in ("inputs", "targets"):
                path, doc = saved_dataset(tmp_path, experiment)
                doc[name][0] = spelled(point, spell)
                path.write_text(json.dumps(doc))
                with pytest.raises(InvalidConfig, match="not a numeric array"):
                    data.load_dataset(path)


def test_load_dataset_rejects_off_manifold_points(tmp_path):
    for experiment in ("exp1", "exp2"):
        path, doc = saved_dataset(tmp_path, experiment)
        doc["inputs"][2] = (1.001 * np.asarray(doc["inputs"][2])).tolist()
        rejects(path, doc, OffManifold)


def test_load_dataset_names_the_file_in_every_error(tmp_path):
    path, doc = saved_dataset(tmp_path, "exp1")
    rejects(path, dict(doc, kind="torus"), match=re.escape(f"{path}: unknown manifold kind"))
    doc["inputs"][2] = [1.001, 0.0, 0.0]
    rejects(path, doc, OffManifold, match=re.escape(f"{path}: dataset defect"))
    path.write_text('{"kind": ' + "[" * 10 ** 5 + "]" * 10 ** 5 + "}")
    with pytest.raises(InvalidConfig, match=re.escape(f"{path}: not valid JSON")):
        data.load_dataset(path)


def test_csv_export_headers_and_values(tmp_path):
    train, _ = data.generate_dataset("exp1", 3, 1, seed=8, steps=16)
    path = tmp_path / "train.csv"
    data.save_dataset_csv(train, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0_1", "x0_2", "x0_3", "y_1", "y_2", "y_3"]
    assert len(rows) == 1 + 3
    parsed = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(parsed[:, :3], train.inputs)
    assert np.array_equal(parsed[:, 3:], train.targets)


def test_csv_export_flattens_rotation_matrices(tmp_path):
    train, _ = data.generate_dataset("exp2", 2, 1, seed=8, steps=16)
    path = tmp_path / "train.csv"
    data.save_dataset_csv(train, path)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header[0] == "x0_11"
    assert header[8] == "x0_33"
    assert header[9] == "y_11"
    assert len(header) == 18
