import numpy as np
import pytest

from qtraj import (
    JumpChannel,
    MeasurementModel,
    PureStateVector,
    apply_jump,
    apply_k,
    apply_l1,
    apply_l2,
    apply_liouvillian,
    build_model,
    check_ellipticity,
    check_pure_preserving,
    check_purification_obstruction_dim2,
    haar_random_state_vector,
    hs_norm,
)
from qtraj.errors import (
    BadChannelIndex,
    ConfigError,
    DimensionMismatch,
    DimensionNotTwo,
    EmptyModel,
    EmptyModelWarning,
    NoDiffusiveChannels,
    NonHermitianH,
    ValidationError,
)

from conftest import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    random_complex,
    random_density_matrix,
)


def random_model(rng, n=2):
    """Random model with all three channel types, for identity checks."""
    h = random_complex(rng, n)
    h = 0.5 * (h + h.conj().T)
    return build_model(
        {
            "dimension": n,
            "hamiltonian": h,
            "diffusive_ops": [random_complex(rng, n) for _ in range(2)],
            "jump_channels": [
                {
                    "label": "a",
                    "weight": float(rng.uniform(0.2, 2.0)),
                    "kraus": [random_complex(rng, n)],
                },
                {
                    "label": "b",
                    "weight": float(rng.uniform(0.2, 2.0)),
                    "kraus": [random_complex(rng, n), random_complex(rng, n)],
                },
            ],
            "dissipative_ops": [random_complex(rng, n)],
        }
    )


class TestBuildModel:
    def test_d1_from_decay_op(self, decay_model):
        assert np.allclose(decay_model.d1, np.diag([1.0, 0.0]))

    def test_identity_jump_channel(self):
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": np.zeros((2, 2)),
                "jump_channels": [{"label": "c", "weight": 1.0, "kraus": [np.eye(2)]}],
            }
        )
        assert np.allclose(m.d2, np.eye(2))
        assert m.total_jump_mass == pytest.approx(1.0)

    def test_non_hermitian_hamiltonian(self):
        with pytest.raises(NonHermitianH):
            build_model({"dimension": 2, "hamiltonian": SIGMA_X + 1j * SIGMA_Y})

    def test_non_finite_input(self):
        h = SIGMA_Z.copy()
        h[0, 1] = h[1, 0] = np.nan
        with pytest.raises(ValidationError):
            build_model({"dimension": 2, "hamiltonian": h})
        with pytest.raises(ValidationError):
            JumpChannel("x", np.inf, (SIGMA_MINUS,))

    def test_empty_config_raises(self):
        with pytest.raises(EmptyModel):
            build_model({"dimension": 2})

    def test_trivial_model_warns(self):
        with pytest.warns(EmptyModelWarning) as record:
            build_model({"dimension": 2, "hamiltonian": np.zeros((2, 2))})
        assert record[0].filename == __file__

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_model({"dimension": 3, "hamiltonian": SIGMA_Z})

    @pytest.mark.parametrize("dim", [2.7, True, "2", np.inf])
    def test_dimension_is_an_integer(self, dim):
        # not read with int(), which makes 2.7 and "2" a 2-level model and true a 1-level one
        with pytest.raises(ConfigError, match="TypeError"):
            build_model({"dimension": dim, "hamiltonian": [[1.0]]})

    def test_integral_float_dimension_is_read(self):
        # a JSON 2.0 is a dimension; the constructor itself takes integers only
        assert build_model({"dimension": 2.0, "hamiltonian": SIGMA_Z}).dim == 2
        with pytest.raises(ValidationError, match="^dimension must be an integer"):
            MeasurementModel(2.0, SIGMA_Z)

    def test_nested_pair_parsing(self):
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]],
            }
        )
        assert np.allclose(m.hamiltonian, SIGMA_Y)

    def test_channel_errors_pass_through(self):
        bad = {"label": "c", "weight": -1.0, "kraus": [np.eye(2)]}
        with pytest.raises(ValidationError) as exc:
            build_model({"dimension": 2, "jump_channels": [bad]})
        assert type(exc.value) is ValidationError
        bad = {"label": "c", "weight": 1.0, "kraus": [np.eye(3)]}
        with pytest.raises(DimensionMismatch):
            build_model({"dimension": 2, "jump_channels": [bad]})

    def test_channel_validation(self):
        with pytest.raises(Exception):
            JumpChannel("x", -1.0, (np.eye(2),))
        with pytest.raises(Exception):
            JumpChannel("x", 1.0, ())


class TestConstructor:
    @pytest.mark.parametrize("n", [2, 3])
    def test_derives_what_build_model_derives(self, rng, n):
        m = random_model(rng, n)
        direct = MeasurementModel(
            n, m.hamiltonian, m.diffusive_ops, m.jump_channels, m.dissipative_ops
        )
        for name in ("hamiltonian", "d1", "d2", "d3"):
            assert np.array_equal(getattr(direct, name), getattr(m, name))
            assert not getattr(direct, name).flags.writeable
        assert direct.total_jump_mass == m.total_jump_mass

    @pytest.mark.parametrize(
        "error, config",
        [
            (NonHermitianH, {"dimension": 2, "hamiltonian": SIGMA_X + 1j * SIGMA_Y}),
            (DimensionMismatch, {"dimension": 3, "hamiltonian": SIGMA_Z}),
            (DimensionMismatch, {"dimension": 3, "diffusive_ops": [SIGMA_MINUS]}),
            (ValidationError, {"dimension": 0, "hamiltonian": np.zeros((1, 1))}),
        ],
        ids=["non_hermitian", "hamiltonian_dim", "operator_dim", "dim_0"],
    )
    def test_raises_where_build_model_does(self, error, config):
        with pytest.raises(error) as built:
            build_model(config)
        kwargs = dict(config)
        with pytest.raises(error) as direct:
            MeasurementModel(kwargs.pop("dimension"), **kwargs)
        assert str(direct.value) == str(built.value)

    def test_channel_of_another_dimension(self):
        channel = JumpChannel("c", 1.0, (SIGMA_MINUS,))
        with pytest.raises(DimensionMismatch):
            MeasurementModel(3, np.eye(3), jump_channels=(channel,))

    def test_trivial_model_warns_at_the_call(self):
        with pytest.warns(EmptyModelWarning) as record:
            MeasurementModel(2)
        assert record[0].filename == __file__


class TestLiouvillian:
    def test_commuting_hamiltonian(self):
        m = build_model({"dimension": 2, "hamiltonian": SIGMA_Z})
        out = apply_liouvillian(m, np.eye(2, dtype=complex) / 2)
        assert hs_norm(out) < 1e-14

    def test_decay_on_excited(self, decay_model, excited):
        out = apply_liouvillian(decay_model, excited.matrix)
        assert np.allclose(out, np.diag([-1.0, 1.0]))

    def test_identity_jump_gives_zero_l2(self, rng):
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": np.zeros((2, 2)),
                "jump_channels": [{"label": "c", "weight": 1.0, "kraus": [np.eye(2)]}],
            }
        )
        rho = random_density_matrix(2, rng)
        assert hs_norm(apply_l2(m, rho)) < 1e-14

    def test_trace_free(self, rng):
        for _ in range(10):
            m = random_model(rng)
            rho = random_complex(rng, 2)
            rho = 0.5 * (rho + rho.conj().T)
            assert abs(np.trace(apply_liouvillian(m, rho))) <= 1e-10

    def test_hermiticity_preserving(self, rng):
        for _ in range(10):
            m = random_model(rng)
            rho = random_complex(rng, 2)
            left = apply_liouvillian(m, rho).conj().T
            right = apply_liouvillian(m, rho.conj().T)
            assert hs_norm(left - right) < 1e-12
            left = apply_k(m, rho).conj().T
            right = apply_k(m, rho.conj().T)
            assert hs_norm(left - right) < 1e-12


class TestApplyK:
    def test_identity_jump_only(self, rng):
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": np.zeros((2, 2)),
                "jump_channels": [{"label": "c", "weight": 1.0, "kraus": [np.eye(2)]}],
            }
        )
        rho = random_density_matrix(2, rng)
        assert hs_norm(apply_k(m, rho)) < 1e-14

    def test_hamiltonian_part(self):
        m = build_model({"dimension": 2, "hamiltonian": SIGMA_Z})
        out = apply_k(m, SIGMA_X)
        assert np.allclose(out, 2.0 * SIGMA_Y)

    def test_no_jump_equals_l0_plus_l1(self, decay_model, rng):
        rho = random_density_matrix(2, rng)
        assert hs_norm(apply_k(decay_model, rho) - apply_l1(decay_model, rho)) < 1e-14

    def test_compensator_identity(self, rng):
        for _ in range(100):
            m = random_model(rng)
            rho = random_density_matrix(2, rng)
            lhs = apply_liouvillian(m, rho)
            rhs = apply_k(m, rho)
            for k, ch in enumerate(m.jump_channels):
                rhs = rhs + ch.weight * (apply_jump(m, rho, k) - rho)
            assert hs_norm(lhs - rhs) <= 1e-10


class TestJumpOps:
    def test_decay_kraus(self, excited):
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": np.zeros((2, 2)),
                "jump_channels": [{"label": "c", "weight": 1.0, "kraus": [SIGMA_MINUS]}],
            }
        )
        out = apply_jump(m, excited.matrix, 0)
        assert np.allclose(out, np.diag([0.0, 1.0]))

    def test_identity_kraus(self, rng):
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": np.zeros((2, 2)),
                "jump_channels": [{"label": "c", "weight": 1.0, "kraus": [np.eye(2)]}],
            }
        )
        rho = random_density_matrix(2, rng)
        assert np.allclose(apply_jump(m, rho, 0), rho)

    def test_two_kraus_sum(self, mixed):
        half = 1.0 / np.sqrt(2.0)
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": np.zeros((2, 2)),
                "jump_channels": [
                    {
                        "label": "c",
                        "weight": 1.0,
                        "kraus": [half * SIGMA_MINUS, half * SIGMA_Z],
                    }
                ],
            }
        )
        got = apply_jump(m, mixed.matrix, 0)
        want = 0.5 * (
            SIGMA_MINUS @ mixed.matrix @ SIGMA_PLUS + SIGMA_Z @ mixed.matrix @ SIGMA_Z
        )
        assert np.allclose(got, want)

    def test_positive_on_states(self, rng):
        m = random_model(rng)
        rho = random_density_matrix(2, rng)
        out = apply_jump(m, rho, 1)
        assert np.linalg.eigvalsh(out).min() >= -1e-12

    def test_bad_index(self, decay_model, mixed):
        with pytest.raises(BadChannelIndex):
            apply_jump(decay_model, mixed.matrix, 0)


class TestPurePreserving:
    def test_dissipative_makes_false(self):
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": np.zeros((2, 2)),
                "dissipative_ops": [SIGMA_MINUS],
            }
        )
        rep = check_pure_preserving(m, n_samples=5, rng_seed=1)
        assert not rep.verdict
        assert rep.dissipative_nonzero

    def test_diffusive_only_true(self, heterodyne_model):
        rep = check_pure_preserving(heterodyne_model, n_samples=20, rng_seed=1)
        assert rep.verdict

    def test_rank_two_channel_false_with_witness(self):
        half = 1.0 / np.sqrt(2.0)
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": np.zeros((2, 2)),
                "jump_channels": [
                    {"label": "c", "weight": 1.0, "kraus": [half * np.eye(2), half * SIGMA_X]}
                ],
            }
        )
        rep = check_pure_preserving(m, n_samples=10, rng_seed=1)
        assert not rep.verdict
        assert len(rep.witnesses) == 10  # every Haar state witnesses rank 2

    def test_decay_jump_is_pure_preserving(self):
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": np.zeros((2, 2)),
                "jump_channels": [{"label": "c", "weight": 1.0, "kraus": [SIGMA_MINUS]}],
            }
        )
        assert check_pure_preserving(m, n_samples=10, rng_seed=2).verdict

    @pytest.mark.parametrize("n_samples", [0, 2.5])
    def test_sample_count_is_an_integer_of_at_least_one(self, heterodyne_model, n_samples):
        with pytest.raises(ValidationError, match="^n_samples must be"):
            check_pure_preserving(heterodyne_model, n_samples=n_samples, rng_seed=1)


class TestObstruction:
    def test_decay_no_obstruction(self, decay_model):
        rep = check_purification_obstruction_dim2(decay_model)
        assert not rep.obstruction_exists

    def test_anti_hermitian_diffusive_obstruction(self):
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": np.zeros((2, 2)),
                "diffusive_ops": [1j * SIGMA_Z],
            }
        )
        rep = check_purification_obstruction_dim2(m)
        assert rep.obstruction_exists

    def test_heterodyne_purifies(self, heterodyne_model):
        rep = check_purification_obstruction_dim2(heterodyne_model)
        assert not rep.obstruction_exists
        assert not rep.restricted_line_checked  # reported as assumption

    def test_wrong_dimension(self, rng):
        m = build_model({"dimension": 3, "hamiltonian": np.eye(3)})
        with pytest.raises(DimensionNotTwo):
            check_purification_obstruction_dim2(m)


class TestEllipticity:
    def test_heterodyne_excited(self, heterodyne_model):
        rep = check_ellipticity(heterodyne_model, PureStateVector([1.0, 0.0]))
        assert rep.elliptic

    def test_heterodyne_ground_fails(self, heterodyne_model):
        rep = check_ellipticity(heterodyne_model, PureStateVector([0.0, 1.0]))
        assert not rep.elliptic
        assert rep.failing_direction is not None

    def test_single_channel_never_elliptic(self, decay_model, rng):
        for _ in range(10):
            psi = PureStateVector(haar_random_state_vector(2, rng))
            rep = check_ellipticity(decay_model, psi)
            assert not rep.elliptic
            assert rep.rank <= 1

    def test_heterodyne_classification_100_samples(self, heterodyne_model, rng):
        ground = np.array([0.0, 1.0], dtype=complex)
        for _ in range(100):
            psi = haar_random_state_vector(2, rng)
            rep = check_ellipticity(heterodyne_model, PureStateVector(psi))
            overlap = abs(np.vdot(psi, ground))
            if 1.0 - overlap > 1e-6:
                assert rep.elliptic

    def test_requires_diffusive(self, direct_model):
        with pytest.raises(NoDiffusiveChannels):
            check_ellipticity(direct_model, PureStateVector([1.0, 0.0]))
