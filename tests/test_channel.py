import json

import numpy as np
import pytest

from cpshrink.channel import (
    KrausChannel,
    identity_channel,
    partial_trace_channel,
    random_channel,
    random_cptp_channel,
    random_isometry,
)
from cpshrink.errors import (
    ChannelFormatError,
    DimensionMismatch,
    InfeasibleShape,
    NotIsometry,
)
from cpshrink.spectral import is_psd, random_hermitian


# ==== independent oracles ====

def slow_apply(kraus, x):
    """Channel application written as explicit index sums."""
    d_out, d_in = kraus[0].shape
    out = np.zeros((d_out, d_out), dtype=complex)
    for op in kraus:
        for a in range(d_out):
            for b in range(d_out):
                acc = 0.0 + 0.0j
                for i in range(d_in):
                    for j in range(d_in):
                        acc += op[a, i] * x[i, j] * np.conj(op[b, j])
                out[a, b] += acc
    return out


def slow_choi(phi):
    """Choi matrix assembled basis unit by basis unit."""
    dim = phi.d_in * phi.d_out
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(phi.d_in):
        for j in range(phi.d_in):
            unit = np.zeros((phi.d_in, phi.d_in), dtype=complex)
            unit[i, j] = 1.0
            image = sum(op @ unit @ op.conj().T for op in phi.kraus)
            out += np.kron(unit, image)
    return out


def slow_partial_trace(x, d_b, d_c):
    """Partial trace over the trailing factor by direct index summation."""
    out = np.zeros((d_b, d_b), dtype=complex)
    for b1 in range(d_b):
        for b2 in range(d_b):
            for c in range(d_c):
                out[b1, b2] += x[b1 * d_c + c, b2 * d_c + c]
    return out


class TestConstruction:
    def test_shapes_validated(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel(2, 3, (np.eye(2),))

    def test_needs_an_operator(self):
        with pytest.raises(ValueError):
            KrausChannel(2, 2, ())

    def test_rejects_all_zero_set(self):
        with pytest.raises(ValueError):
            KrausChannel(2, 2, (np.zeros((2, 2)), np.zeros((2, 2))))

    def test_zero_operator_inside_set_allowed(self):
        phi = KrausChannel(2, 2, (np.eye(2), np.zeros((2, 2))))
        assert phi.n_kraus == 2

    def test_arrays_read_only(self):
        phi = identity_channel(2)
        with pytest.raises(ValueError):
            phi.kraus[0][0, 0] = 5.0
        # every constructor stores one read-only complex128 stack (n_kraus, d_out, d_in)
        base = random_channel(3, 2, 2, 1.0, 4)
        cases = [
            (identity_channel(2), (1, 2, 2)),
            (partial_trace_channel(2, 3), (3, 2, 6)),
            (base, (2, 2, 3)),
            (random_cptp_channel(3, 2, 2, 4), (2, 2, 3)),
            (base.remix(random_isometry(4, 2, 5)), (4, 2, 3)),
            (KrausChannel.from_json(base.to_json()), (2, 2, 3)),
            (KrausChannel(2, 1, [[[1, 2]], [[0, 1j]]]), (2, 1, 2)),
        ]
        for phi, shape in cases:
            assert isinstance(phi.kraus, np.ndarray)
            assert phi.kraus.dtype == np.complex128 and phi.kraus.shape == shape
            assert not phi.kraus.flags.writeable
            assert not phi.invariants().identity_image.flags.writeable
            assert not phi.invariants().adjoint_identity_image.flags.writeable
            with pytest.raises(ValueError):
                phi.kraus[-1, 0, 0] = 5.0

    def test_source_array_copied(self):
        # writing into the caller's arrays after construction leaves the channel as built
        src = np.stack([np.eye(2), np.diag([0.0, 2.0])]).astype(np.complex128)
        ops = list(src.copy())
        channels = [KrausChannel(2, 2, src), KrausChannel(2, 2, ops)]
        src[1, 0, 0] = ops[1][0, 0] = 7.0
        for phi in channels:
            np.testing.assert_array_equal(phi.kraus[1], np.diag([0.0, 2.0]))
            np.testing.assert_array_equal(phi.invariants().identity_image, np.diag([1.0, 5.0]))


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = random_hermitian(3, rng)
        np.testing.assert_allclose(identity_channel(3).apply(x), x, atol=1e-12)

    @pytest.mark.parametrize("d_in,d_out,n_kraus", [(2, 2, 1), (3, 2, 2), (2, 4, 3), (4, 3, 2)])
    def test_matches_slow_oracle(self, d_in, d_out, n_kraus):
        rng = np.random.default_rng(42)
        phi = random_channel(d_in, d_out, n_kraus, 1.0, 42)
        xs = np.stack([random_hermitian(d_in, rng) for _ in range(5)])
        for x in xs:
            np.testing.assert_allclose(phi.apply(x), slow_apply(phi.kraus, x), atol=1e-10)
        # a stack maps matrix by matrix, bit for bit
        images = phi.apply(xs)
        assert images.shape == (5, d_out, d_out)
        for x, image in zip(xs, images):
            np.testing.assert_allclose(image, slow_apply(phi.kraus, x), atol=1e-10)
            np.testing.assert_array_equal(image, phi.apply(x))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace_channel(2, 2).apply(np.eye(3))
        with pytest.raises(DimensionMismatch):
            partial_trace_channel(2, 2).apply(np.stack([np.eye(3), np.eye(3)]))

    def test_rejects_non_hermitian_input(self):
        with pytest.raises(ValueError):
            identity_channel(2).apply(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # one bad matrix in a stack is enough
        with pytest.raises(ValueError):
            identity_channel(2).apply(np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        phi = random_channel(3, 2, 2, 1.0, 7)
        x = random_hermitian(3, rng)
        y = random_hermitian(3, rng)
        a, b = 0.7, -1.3
        lhs = phi.apply(a * x + b * y)
        rhs = a * phi.apply(x) + b * phi.apply(y)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())

    def test_preserves_positivity(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            phi = random_channel(3, 3, 2, 1.0, seed)
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert is_psd(phi.apply(a @ a.conj().T))
        assert not is_psd(np.diag([1.0, -1e-6]))

    def test_trace_identity(self):
        # tr(Phi(x)) equals tr(Phi†(I) x)
        rng = np.random.default_rng(3)
        for seed in range(10):
            phi = random_channel(4, 2, 3, 1.0, seed)
            w = phi.invariants().adjoint_identity_image
            x = random_hermitian(4, rng)
            lhs = np.trace(phi.apply(x)).real
            rhs = np.trace(w @ x).real
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestInvariants:
    def test_identity_channel(self):
        inv = identity_channel(3).invariants()
        np.testing.assert_allclose(inv.identity_image, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(inv.adjoint_identity_image, np.eye(3), atol=1e-12)

    def test_single_kraus_example(self):
        inv = KrausChannel(2, 2, (np.diag([2.0, 0.0]),)).invariants()
        np.testing.assert_allclose(inv.identity_image, np.diag([4.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(inv.adjoint_identity_image, np.diag([4.0, 0.0]), atol=1e-12)

    def test_matches_direct_sums(self):
        phi = random_channel(3, 4, 2, 1.0, 11)
        inv = phi.invariants()
        # the pair is computed once, at construction, and handed out as is
        assert phi.invariants() is inv
        m = sum(op @ op.conj().T for op in phi.kraus)
        w = sum(op.conj().T @ op for op in phi.kraus)
        assert np.abs(inv.identity_image - m).max() <= 1e-10
        assert np.abs(inv.adjoint_identity_image - w).max() <= 1e-10

    def test_psd(self):
        for seed in range(10):
            inv = random_channel(3, 2, 2, 1.0, seed).invariants()
            assert is_psd(inv.identity_image)
            assert is_psd(inv.adjoint_identity_image)

    def test_identity_image_is_image_of_identity(self):
        phi = random_channel(3, 2, 2, 1.0, 12)
        np.testing.assert_allclose(
            phi.apply(np.eye(3)), phi.invariants().identity_image, atol=1e-10
        )


class TestRemix:
    def test_identity_recombination(self):
        phi = random_channel(2, 2, 2, 1.0, 5)
        mixed = phi.remix(np.eye(2))
        for a, b in zip(phi.kraus, mixed.kraus):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_swap_reorders(self):
        phi = random_channel(2, 2, 2, 1.0, 6)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        mixed = phi.remix(swap)
        np.testing.assert_allclose(mixed.kraus[0], phi.kraus[1], atol=1e-12)
        np.testing.assert_allclose(mixed.kraus[1], phi.kraus[0], atol=1e-12)

    def test_count_increasing_preserves_channel(self):
        phi = random_channel(3, 2, 2, 1.0, 7)
        v = random_isometry(4, 2, 9)
        mixed = phi.remix(v)
        assert mixed.n_kraus == 4
        assert np.abs(mixed.choi_matrix() - phi.choi_matrix()).max() <= 1e-9
        inv, minv = phi.invariants(), mixed.invariants()
        assert np.abs(inv.identity_image - minv.identity_image).max() <= 1e-9
        assert np.abs(inv.adjoint_identity_image - minv.adjoint_identity_image).max() <= 1e-9

    def test_rejects_non_isometry(self):
        phi = random_channel(2, 2, 2, 1.0, 8)
        with pytest.raises(NotIsometry):
            phi.remix(np.array([[1.0, 0.0], [1.0, 0.5]]))

    def test_rejects_wrong_columns(self):
        phi = random_channel(2, 2, 2, 1.0, 8)
        with pytest.raises(DimensionMismatch):
            phi.remix(np.eye(3))


class TestChoi:
    def test_identity_channel_eigenvalues(self):
        eigs = np.linalg.eigvalsh(identity_channel(2).choi_matrix())
        np.testing.assert_allclose(np.sort(eigs)[::-1], [2.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_diagonal_kraus_pattern(self):
        phi = KrausChannel(2, 2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        choi = phi.choi_matrix()
        np.testing.assert_allclose(choi, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("d_in,d_out,n_kraus", [(2, 2, 1), (2, 3, 2), (3, 2, 2)])
    def test_matches_slow_oracle(self, d_in, d_out, n_kraus):
        phi = random_channel(d_in, d_out, n_kraus, 1.0, 21)
        np.testing.assert_allclose(phi.choi_matrix(), slow_choi(phi), atol=1e-10)

    def test_psd_across_seeds(self):
        for seed in range(1000):
            phi = random_channel(2, 2, 2, 1.0, seed)
            eigs = np.linalg.eigvalsh(phi.choi_matrix())
            assert eigs[0] >= -1e-9 * max(1.0, eigs[-1])


class TestPartialTrace:
    def test_identity_input(self):
        phi = partial_trace_channel(2, 2)
        np.testing.assert_allclose(phi.apply(np.eye(4)), 2.0 * np.eye(2), atol=1e-12)

    def test_kraus_count_and_shape(self):
        phi = partial_trace_channel(3, 4)
        assert phi.n_kraus == 4
        assert phi.d_in == 12 and phi.d_out == 3

    def test_product_input(self):
        rng = np.random.default_rng(31)
        y = random_hermitian(3, rng)
        z = random_hermitian(2, rng)
        phi = partial_trace_channel(3, 2)
        out = phi.apply(np.kron(y, z))
        np.testing.assert_allclose(out, y * np.trace(z).real, atol=1e-10)

    def test_matches_index_sum_oracle(self):
        rng = np.random.default_rng(32)
        phi = partial_trace_channel(2, 3)
        for _ in range(5):
            x = random_hermitian(6, rng)
            np.testing.assert_allclose(phi.apply(x), slow_partial_trace(x, 2, 3), atol=1e-10)

    def test_trivial_traced_factor(self):
        rng = np.random.default_rng(33)
        x = random_hermitian(3, rng)
        np.testing.assert_allclose(partial_trace_channel(3, 1).apply(x), x, atol=1e-12)

    def test_invariants(self):
        inv = partial_trace_channel(2, 3).invariants()
        np.testing.assert_allclose(inv.identity_image, 3.0 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(inv.adjoint_identity_image, np.eye(6), atol=1e-12)


class TestRandomChannels:
    def test_deterministic(self):
        a = random_channel(3, 2, 2, 1.0, 123)
        b = random_channel(3, 2, 2, 1.0, 123)
        for x, y in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(x, y)

    def test_scale_covariance(self):
        a = random_channel(3, 2, 2, 1.0, 9)
        b = random_channel(3, 2, 2, 2.0, 9)
        np.testing.assert_allclose(
            b.invariants().identity_image, 4.0 * a.invariants().identity_image, rtol=1e-14
        )
        np.testing.assert_allclose(
            b.invariants().adjoint_identity_image,
            4.0 * a.invariants().adjoint_identity_image,
            rtol=1e-14,
        )

    def test_cptp_trace_preserving(self):
        for d_in, d_out, n_kraus, seed in [(2, 2, 1, 0), (3, 2, 2, 1), (4, 4, 3, 2), (2, 5, 1, 3)]:
            phi = random_cptp_channel(d_in, d_out, n_kraus, seed)
            w = phi.invariants().adjoint_identity_image
            assert np.abs(w - np.eye(d_in)).max() <= 1e-10

    def test_cptp_single_unitary_kraus(self):
        phi = random_cptp_channel(2, 2, 1, 5)
        inv = phi.invariants()
        assert np.abs(inv.identity_image - np.eye(2)).max() <= 1e-10
        assert np.abs(inv.adjoint_identity_image - np.eye(2)).max() <= 1e-10

    def test_cptp_infeasible_shape(self):
        with pytest.raises(InfeasibleShape):
            random_cptp_channel(4, 1, 2, 0)

    def test_isometry_infeasible_shape(self):
        with pytest.raises(InfeasibleShape):
            random_isometry(2, 3, 0)


class TestJsonInterchange:
    def test_round_trip_exact(self):
        phi = random_channel(3, 2, 2, 1.0, 77)
        again = KrausChannel.from_json(phi.to_json())
        assert again.d_in == phi.d_in and again.d_out == phi.d_out
        for a, b in zip(phi.kraus, again.kraus):
            np.testing.assert_array_equal(a, b)

    def test_schema_shape(self):
        doc = json.loads(partial_trace_channel(2, 2).to_json())
        assert doc["d_in"] == 4 and doc["d_out"] == 2
        assert len(doc["kraus"]) == 2
        assert len(doc["kraus"][0]) == 2  # d_out rows
        assert len(doc["kraus"][0][0]) == 4  # d_in entries
        assert doc["kraus"][0][0][0] == [1.0, 0.0]

    def test_missing_field_named(self):
        with pytest.raises(ChannelFormatError, match="d_out"):
            KrausChannel.from_dict({"d_in": 2, "kraus": []})

    def test_bad_dimension_named(self):
        with pytest.raises(ChannelFormatError, match="d_in"):
            KrausChannel.from_dict({"d_in": "2", "d_out": 2, "kraus": []})

    def test_bad_row_count_named(self):
        doc = {"d_in": 1, "d_out": 2, "kraus": [[[[1.0, 0.0]]]]}
        with pytest.raises(ChannelFormatError, match=r"kraus\[0\]"):
            KrausChannel.from_dict(doc)

    def test_bad_entry_named(self):
        doc = {"d_in": 2, "d_out": 1, "kraus": [[[[1.0, 0.0], [0.0]]]]}
        with pytest.raises(ChannelFormatError, match=r"kraus\[0\]\[0\]\[1\]"):
            KrausChannel.from_dict(doc)

    def test_malformed_json(self):
        with pytest.raises(ChannelFormatError, match="malformed"):
            KrausChannel.from_json("{not json")

    def test_all_zero_rejected_with_field(self):
        doc = {"d_in": 1, "d_out": 1, "kraus": [[[[0.0, 0.0]]]]}
        with pytest.raises(ChannelFormatError, match="kraus"):
            KrausChannel.from_dict(doc)
