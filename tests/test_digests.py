"""The benchmark's result digests at seed 1, checked in process.

``bench/run.py`` prints a digest of every operation's id, status, lhs bits
and evaluation count.  A change that keeps every result bit for bit keeps
the digest; one that moves a single evaluation count or a last bit of an
lhs does not.  Here the catalog, custom, deep and cli workloads run through
the benchmark's own ``generate`` and ``Executor``, in this interpreter, and
their digests are compared with the committed ones.  The cli workload's
commands run through ``quadcheck.cli.main`` here, not in a child process,
and give the digest of the child-process runs: it pins each command's exit
code and, in its JSON records, each case, lhs bit and evaluation count.

Each digest holds for one operation list.  Where a workload's list no
longer hashes to the value committed beside its digest, the benchmark
itself has changed, and the test skips: both values are then to be taken
anew from ``python bench/run.py --workload NAME --seed 1``.
"""

import hashlib
import os
import sys
import warnings

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import workloads  # noqa: E402

#: workload -> (hash of its operation list at seed 1, result digest)
_COMMITTED = {
    "catalog": ("fe9232a54a525975", "c1fbd04c716e0098"),
    "cli": ("41094706d49fd0ec", "e388b25ecf956a4b"),
    "custom": ("1417823945ddd159", "ac5e42b9b7798f8e"),
    "deep": ("1793f4f35c1a4a03", "c92d16f0fc730fb8"),
}


def _list_hash(ops) -> str:
    text = repr([(op.op_id, op.kind, op.params) for op in ops])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("workload", sorted(_COMMITTED))
def test_results_repeat_the_committed_digest(workload):
    list_hash, digest = _COMMITTED[workload]
    ops = workloads.generate(workload, 1)
    if _list_hash(ops) != list_hash:
        pytest.skip(f"the {workload} operation list has changed: its committed digest "
                    "is for another list")
    execute = workloads.Executor(workload, "", in_process=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the zeta rows' AccuracyWarning
        outcomes = [execute(op) for op in ops]
    assert workloads.digest(ops, outcomes) == digest
