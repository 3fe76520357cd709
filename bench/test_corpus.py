"""Tests of the benchmark's input generator.

Run from the repository root: ``python3 -m pytest bench/test_corpus.py``.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_corpus(workload, tmp_path):
    first = corpus.build_corpus(workload, 7, tmp_path / "a")
    second = corpus.build_corpus(workload, 7, tmp_path / "b")
    assert [(i.name, i.params) for i in first] == [(i.name, i.params) for i in second]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    other = corpus.build_corpus(workload, 8, tmp_path / "c")
    if workload != "replay":
        assert _files(tmp_path / "a") != _files(tmp_path / "c")
    else:
        assert [i.params for i in first] != [i.params for i in other]


def _is_identity(m):
    return all(m[r][c] == (r == c) for r in range(len(m)) for c in range(len(m)))


@pytest.mark.parametrize("seed", range(5))
def test_rotations_are_orthogonal_and_u2_commutes_with_phi(seed):
    rng = random.Random(seed)
    phi = [list(row) for row in corpus.PHI]
    for q in (corpus.so5_rotation(rng), corpus.u2_rotation(rng)):
        assert _is_identity(corpus.matmul(q, corpus.transpose(q)))
    q = corpus.u2_rotation(rng)
    assert corpus.matmul(q, phi) == corpus.matmul(phi, q)
    assert q[4] == [0, 0, 0, 0, 1]


def test_replay_points_cover_every_identification_branch():
    for seed in range(10):
        points = corpus.replay_params(random.Random(seed))
        branches = {checks.expected_identity(*p) for name, p in points if any(p)}
        assert {
            ("su2+su2", True, False),
            ("sl2+sl2", True, False),
            ("abelian6", True, False),
            ("heis5+R", True, False),
            ("su2+su2", False, False),
            ("unclassified-here", False, False),
        } <= branches
        assert any(rec for _, _, rec in branches)
        assert (0, 0, 0, 0) in [p for _, p in points]
        for a1, a2, a3, a4 in (p for _, p in points):
            assert a1 * a4 == a2 * a3
