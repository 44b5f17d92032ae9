import json
import math
import multiprocessing

import numpy as np
import pytest

from negmono.matcore import (
    WINDOW,
    _complex_gaussians,
    _herm,
    _negativities,
    _ordered_map,
    as_complex_matrix,
    complex_gaussian,
    hermitian_eig,
    hermitian_eigenvalues,
    load_matrix,
    make_report,
    matrix_from_dict,
    matrix_to_dict,
    negativity,
    psd_sqrt,
    require_hermitian,
)
from negmono.permlemma import drury_numeric_check
from negmono.specialcase import check_ineqid, commutator_gap, connecting_unitary


def random_hermitian(rng, d):
    m = complex_gaussian(rng, (d, d))
    return (m + m.conj().T) / 2.0


def test_as_complex_matrix_accepts_lists():
    m = as_complex_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


def test_as_complex_matrix_rejects_bad_input():
    for bad in ([1.0, 2.0], np.ones((1, 1, 1)), np.zeros((0, 3))):
        with pytest.raises(ValueError, match=r"^expected a non-empty 2-d matrix, got shape \("):
            as_complex_matrix(bad)
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            as_complex_matrix([[bad, 0.0], [0.0, 1.0]])


def test_require_hermitian():
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, 4)
    out = require_hermitian(h)
    assert np.array_equal(out, out.conj().T)
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        require_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"^asymmetry 1\.000e\+00 exceeds "):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(1)
    for d in (1, 2, 5, 8):
        h = random_hermitian(rng, d)
        lam, v = hermitian_eig(h)
        assert np.all(np.diff(lam) >= 0)
        np.testing.assert_allclose((v * lam) @ v.conj().T, h, atol=1e-12)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-12)


def test_hermitian_eigenvalues_match_numpy():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 6)
    np.testing.assert_allclose(hermitian_eigenvalues(h), np.linalg.eigvalsh(h))


def test_negativity_identities():
    rng = np.random.default_rng(6)
    h = random_hermitian(rng, 7)
    lam, v = np.linalg.eigh(h)  # the Jordan parts H = P - N
    p = (v * np.clip(lam, 0.0, None)) @ v.conj().T
    n = (v * np.clip(-lam, 0.0, None)) @ v.conj().T
    tr_n = float(np.trace(n).real)
    assert negativity(h) == pytest.approx(2.0 * tr_n, abs=1e-12)
    assert negativity(h) == pytest.approx(np.linalg.norm(h, "nuc") - np.trace(h).real, abs=1e-11)
    assert negativity(p) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_negativity_is_the_stacked_kernel(n):
    # the public negativity is one row of the kernel monogamy and acceptance
    # run on stacks, to the last bit
    h = _herm(_complex_gaussians(np.random.default_rng(n), 7, (n, n)))
    stacked = _negativities(h)
    assert stacked.shape == (7,)
    assert [negativity(row) for row in h] == stacked.tolist()


def test_negativity_known_value():
    # eigenvalues 3 and -2: N = 2 * 2 = 4
    assert negativity(np.diag([3.0, -2.0])) == pytest.approx(4.0, abs=1e-14)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(7)
    m = complex_gaussian(rng, (5, 5))
    p = m @ m.conj().T
    r = psd_sqrt(p)
    np.testing.assert_allclose(r @ r, p, atol=1e-11)
    with pytest.raises(ValueError, match=r"^smallest eigenvalue -5\.000e-01 below clamp "):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_make_report_fields():
    rep = make_report("demo", 1.0, 1.5, d=3)
    assert rep.holds and rep.slack == pytest.approx(0.5)
    rec = rep.with_meta(seed=4).to_dict()
    assert rec["name"] == "demo" and rec["d"] == 3 and rec["seed"] == 4
    assert not make_report("demo", 1.0, 0.5).holds
    # tolerance edge: tiny negative slack still counts as holding
    assert make_report("demo", 1.0, 1.0 - 1e-10).holds


def test_matrix_json_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    m = complex_gaussian(rng, (3, 4))
    raw = matrix_to_dict(m)
    assert raw["rows"] == 3 and raw["cols"] == 4 and len(raw["data"]) == 12
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    np.testing.assert_array_equal(load_matrix(path), m)
    np.testing.assert_array_equal(matrix_from_dict(raw), m)


def test_matrix_json_roundtrip_keeps_signed_zeros_and_subnormals():
    # every float is written and read as its own bits, so -0.0 and the
    # subnormals keep their sign and their last bit in both parts
    m = np.array([[complex(-0.0, 5e-324), complex(5e-324, -0.0)],
                  [complex(-1e-310, 2.2250738585072014e-308), complex(1.0, -0.0)]])
    back = matrix_from_dict(json.loads(json.dumps(matrix_to_dict(m))))
    assert back.dtype == complex and back.tobytes() == m.tobytes()


@pytest.mark.parametrize("size", [1.9, 1.0, "1", None, True])
def test_matrix_json_sizes_must_be_integers(size):
    # a fractional, float, string, null or boolean size is refused, not
    # truncated or read as 1
    for obj in ({"rows": size, "cols": 1, "data": [[1, 0]]},
                {"rows": 1, "cols": size, "data": [[1, 0]]}):
        with pytest.raises(ValueError, match=r"^matrix JSON sizes rows, cols must be integers$"):
            matrix_from_dict(obj)


@pytest.mark.parametrize("entry", [[10**400, 0], [0, -10**400]])
def test_matrix_json_entries_past_the_float_range_are_refused(entry):
    # complex() of such an int raised OverflowError, which no caller maps to bad input
    with pytest.raises(ValueError, match=r"^matrix JSON data must be a list of \[re, im\] pairs"):
        matrix_from_dict({"rows": 1, "cols": 1, "data": [entry]})


def test_matrix_json_integer_sizes_load():
    m = matrix_from_dict({"rows": 2, "cols": np.int64(1), "data": [[1, 0], [0, 2]]})
    np.testing.assert_array_equal(m, [[1.0], [2j]])


def test_complex_gaussian_unit_variance():
    rng = np.random.default_rng(10)
    z = complex_gaussian(rng, (200, 200))
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.05)


def _former_complex_gaussian(rng, shape):
    # the definition before one generator call drew a whole stack
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


# 8x8x8 and 3x7x7 hold more entries than numpy's pairwise-sum block of 128
@pytest.mark.parametrize("shape", [(1,), (2, 2), (5, 3), (2, 3, 3), (3, 7, 7), (8, 8, 8)])
@pytest.mark.parametrize("k", [1, 2, 16, 33])
def test_complex_gaussians_are_k_single_draws(shape, k):
    # one generator call for k draws gives the bits of k successive draws,
    # in the former and in the current single-draw form, and leaves the
    # generator where they leave it
    rngs = [np.random.default_rng(21) for _ in range(3)]
    stack = _complex_gaussians(rngs[0], k, shape)
    assert stack.shape == (k, *shape) and stack.dtype == complex
    former = np.stack([_former_complex_gaussian(rngs[1], shape) for _ in range(k)])
    single = np.stack([complex_gaussian(rngs[2], shape) for _ in range(k)])
    np.testing.assert_array_equal(stack.view(float), former.view(float))
    np.testing.assert_array_equal(stack.view(float), single.view(float))
    nxt = [_complex_gaussians(rngs[0], 1, shape)[0], _former_complex_gaussian(rngs[1], shape),
           complex_gaussian(rngs[2], shape)]
    np.testing.assert_array_equal(nxt[0], nxt[1])
    np.testing.assert_array_equal(nxt[0], nxt[2])


def test_complex_gaussian_accepts_an_integer_shape():
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    np.testing.assert_array_equal(complex_gaussian(a, 5), _former_complex_gaussian(b, 5))


@pytest.mark.parametrize("check", [require_hermitian, check_ineqid, commutator_gap,
                                   connecting_unitary, drury_numeric_check],
                         ids=lambda f: f.__name__)
def test_non_square_input_gives_one_message(check):
    # every public boundary that needs a square matrix shares one check
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        check(np.ones((2, 3), dtype=complex))


def test_ordered_map_yields_in_item_order_in_up_to_one_worker_per_item(cpus, in_process_pool):
    items = [float(k * k) for k in range(9)]
    expected = [float(k) for k in range(9)]
    cpus(64)
    assert list(_ordered_map(math.sqrt, items, 4)) == expected
    assert list(_ordered_map(math.sqrt, items, 1)) == expected
    assert list(_ordered_map(math.sqrt, items[:1], 8)) == expected[:1]
    assert list(_ordered_map(math.sqrt, iter(items[:3]), 8)) == expected[:3]
    # one item or one worker maps in this process
    assert in_process_pool == [4, 3]
    # never more workers than CPUs in the affinity mask: --jobs 5000 over
    # 5000 items starts 2, and over one CPU none
    cpus(2)
    many = range(5000)
    assert list(_ordered_map(abs, many, 5000)) == list(many)
    cpus(1)
    assert list(_ordered_map(math.sqrt, items, 4)) == expected
    assert in_process_pool == [4, 3, 2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_ordered_map_reads_at_most_the_window_ahead_of_its_consumer(cpus, jobs):
    # in workers the map keeps WINDOW items per worker in flight, in this
    # process it reads one item per result; a counting generator tells
    cpus(2)
    read = []

    def items():
        for k in range(40):
            read.append(k)
            yield float(k)

    window = 1 if jobs == 1 else WINDOW * jobs
    ahead = []
    for k, root in enumerate(_ordered_map(math.sqrt, items(), jobs)):
        assert root == math.sqrt(k)
        ahead.append(len(read) - (k + 1))
    assert max(ahead) == window - 1 and len(read) == 40
    assert multiprocessing.active_children() == []


def test_ordered_map_in_workers_shuts_its_pool_down_on_return_and_raise():
    assert list(_ordered_map(math.sqrt, [4.0, 9.0, 16.0], 2)) == [2.0, 3.0, 4.0]
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError, match="math domain error"):
        list(_ordered_map(math.sqrt, [4.0, -1.0, 16.0, 25.0], 2))
    assert multiprocessing.active_children() == []
