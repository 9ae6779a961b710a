"""The one-pass decision rule and conditional maximal correlation against
the per-group loops they replaced.

``ref_apply_policy`` scores each group's records through a mask, and
``ref_conditional_maximal_correlation`` takes each stratum's joint from its
own masked samples; both are the earlier code, kept here as the reference.
The one-pass code must give the same bits, the same None pattern and the
same exceptions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import depmeasure
from fairaudit.data import (
    DataError,
    Dataset,
    PredictionSet,
    ThresholdMixture,
    ThresholdPolicy,
    apply_policy,
    load_toy,
)
from fairaudit.depmeasure import (
    BasisSpec,
    ConstantInputError,
    conditional_maximal_correlation,
    maximal_correlation,
)


def ref_apply_policy(d, policy):
    """Each group's records scored against its rule through a mask."""
    score = d.require_scores()
    prob = np.empty(len(d))
    for g in np.unique(d.s):
        mask = d.s == g
        prob[mask] = policy.rule_for(int(g)).decision_prob(score[mask])
    return PredictionSet(prob=prob)


def ref_conditional_maximal_correlation(x, y, z, w=None, basis=None):
    """Each stratum's maximal correlation from its own masked samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z)
    w = np.ones(len(x)) if w is None else np.asarray(w, dtype=float)
    per = {}
    for level in np.unique(z):
        mask = z == level
        key = level.item() if hasattr(level, "item") else level
        try:
            per[key] = maximal_correlation(x[mask], y[mask], w[mask], basis)
        except (ConstantInputError, ValueError):
            per[key] = None
    values = [v for v in per.values() if v is not None]
    if not values:
        raise ConstantInputError("every stratum is degenerate")
    return per, max(values)


def exact(f, *args):
    """Keys, types and float.hex of each stratum's value, and of the maximum;
    or the exception's type and message."""
    try:
        res = f(*args)
    except ConstantInputError as exc:
        return type(exc).__name__, str(exc)
    per, top = (res.per_stratum, res.max_value) if hasattr(res, "per_stratum") else res
    return [(k, type(k), None if v is None else v.hex()) for k, v in per.items()], top.hex()


def bits(pred):
    return pred.prob.dtype.str, pred.prob.tobytes()


def policy_outcome(f, d, policy):
    try:
        return bits(f(d, policy))
    except DataError as exc:
        return "DataError", str(exc)


# ---------------------------------------------------------------------------
# apply_policy
# ---------------------------------------------------------------------------

DET = ThresholdMixture.deterministic
MIX = ThresholdMixture((0.2, 0.8), (0.25, 0.75))


def one_group(g):
    toy = load_toy()
    return Dataset(s=[g] * len(toy), y=toy.y, score=toy.score)


POLICY_CASES = {
    "shared rule": (load_toy(), ThresholdPolicy.shared(0.5)),
    "equal distinct rules": (load_toy(), ThresholdPolicy(rules={0: DET(0.5), 1: DET(0.5)})),
    "equal distinct mixtures": (
        load_toy(),
        ThresholdPolicy(rules={g: ThresholdMixture((0.2, 0.8), (0.25, 0.75)) for g in (0, 1)}),
    ),
    "differing thresholds": (load_toy(), ThresholdPolicy.per_group(0.3, 0.6)),
    "differing mixtures": (
        load_toy(), ThresholdPolicy(rules={0: MIX, 1: ThresholdMixture((0.2, 0.8), (0.5, 0.5))})
    ),
    "differing kinds": (load_toy(), ThresholdPolicy(rules={0: DET(0.2), 1: MIX})),
    # equal by ==, but group 0 decides -0.0 and group 1 0.0
    "signed zero probabilities": (
        load_toy(),
        ThresholdPolicy(rules={0: ThresholdMixture((0.5,), (-0.0,)),
                               1: ThresholdMixture((0.5,), (0.0,))}),
    ),
    "group 0 absent": (one_group(1), ThresholdPolicy(rules={0: DET(0.2), 1: MIX})),
    "group 1 absent, no rule for it": (one_group(0), ThresholdPolicy(rules={0: MIX})),
    "no rule for group 1": (load_toy(), ThresholdPolicy(rules={0: DET(0.5)})),
    "no rule for group 0": (load_toy(), ThresholdPolicy(rules={1: DET(0.5)})),
    "no rule for either group": (load_toy(), ThresholdPolicy(rules={})),
}


@pytest.mark.parametrize("case", sorted(POLICY_CASES))
def test_apply_policy_matches_masked_loop(case):
    d, policy = POLICY_CASES[case]
    got = policy_outcome(apply_policy, d, policy)
    assert got == policy_outcome(ref_apply_policy, d, policy)
    if case.startswith("no rule"):
        assert got[0] == "DataError"


@pytest.fixture
def decision_passes(monkeypatch):
    """The length of the scores each decision_prob call is handed."""
    lengths = []
    decide = ThresholdMixture.decision_prob

    def spy(self, score):
        lengths.append(len(score))
        return decide(self, score)

    monkeypatch.setattr(ThresholdMixture, "decision_prob", spy)
    return lengths


@pytest.mark.parametrize("case,passes", [
    ("shared rule", [24]), ("equal distinct mixtures", [24]), ("group 0 absent", [24]),
    ("differing mixtures", [8, 16]), ("signed zero probabilities", [8, 16]),
])
def test_one_decision_pass_only_for_one_rule(decision_passes, case, passes):
    d, policy = POLICY_CASES[case]
    apply_policy(d, policy)
    assert decision_passes == passes


RULES = [DET(0.5), DET(0.5), DET(0.25), MIX, ThresholdMixture((0.2, 0.8), (0.25, 0.75)),
         ThresholdMixture((0.1, 0.5, 0.9), (0.5, 0.25, 0.25)), ThresholdMixture((0.5,), (-0.0,))]


@settings(max_examples=200, deadline=None)
@given(
    s=st.lists(st.integers(0, 1), min_size=1, max_size=30),
    data=st.data(),
    rules=st.tuples(st.sampled_from(RULES), st.sampled_from(RULES)),
)
def test_apply_policy_matches_masked_loop_property(s, data, rules):
    score = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.5, 0.8, 0.9, 1.0]),
                               min_size=len(s), max_size=len(s)))
    d = Dataset(s=s, y=[0] * len(s), score=score)
    policy = ThresholdPolicy(rules=dict(enumerate(rules)))
    assert policy_outcome(apply_policy, d, policy) == policy_outcome(ref_apply_policy, d, policy)


# ---------------------------------------------------------------------------
# conditional_maximal_correlation
# ---------------------------------------------------------------------------


@st.composite
def binary_strata(draw):
    """0/1 x and y over strata of an integer z with gaps (levels drawn from a
    spread-out set), each stratum empty or of 1 to 6 records, sometimes with
    x or y constant in it; unit, integer or lognormal weights."""
    levels = draw(st.lists(st.sampled_from([0, 1, 2, 5, 7, 40]), unique=True, min_size=1,
                           max_size=4))
    x, y, z = [], [], []
    for level in levels:
        n = draw(st.integers(0, 6))
        bit = st.integers(0, 1)
        const_x, const_y = draw(st.sampled_from([(False, False), (True, False), (False, True)]))
        xs = [draw(bit)] * n if const_x else draw(st.lists(bit, min_size=n, max_size=n))
        ys = [draw(bit)] * n if const_y else draw(st.lists(bit, min_size=n, max_size=n))
        x += xs
        y += ys
        z += [level] * n
    order = draw(st.permutations(range(len(z))))
    x, y, z = (np.array(v)[order] if order else np.array(v) for v in (x, y, z))
    weighting = draw(st.sampled_from(["none", "unit", "integer", "lognormal"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    w = {
        "none": None,
        "unit": np.ones(len(z)),
        "integer": rng.integers(1, 5, len(z)).astype(float),
        "lognormal": rng.lognormal(0.0, 2.0, len(z)),
    }[weighting]
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint8]))
    return x.astype(float), y.astype(float), z.astype(dtype), w


@settings(max_examples=500, deadline=None)
@given(binary_strata())
def test_conditional_maxcor_matches_stratum_loop(case):
    x, y, z, w = case
    got = exact(conditional_maximal_correlation, x, y, z, w)
    assert got == exact(ref_conditional_maximal_correlation, x, y, z, w)


@pytest.fixture
def stratum_loop(monkeypatch):
    """The number of masked per-stratum estimates made."""
    calls = []
    estimate = depmeasure.maximal_correlation

    def spy(*args):
        calls.append(1)
        return estimate(*args)

    monkeypatch.setattr(depmeasure, "maximal_correlation", spy)
    return calls


def test_binary_samples_take_one_pass(stratum_loop):
    x = np.array([0, 1, 0, 1, 1, 0, 1, 1.0])
    y = np.array([0, 1, 1, 1, 0, 0, 1, 0.0])
    z = np.array([0, 0, 0, 0, 2, 2, 2, 2])
    got = exact(conditional_maximal_correlation, x, y, z)
    assert got == exact(ref_conditional_maximal_correlation, x, y, z)
    assert [k for k, _, _ in got[0]] == [0, 2]
    assert stratum_loop == []


@pytest.mark.parametrize("x,w,z,basis", [
    ([0, 0.5, 1, 1, 0, 1], None, [0, 0, 0, 1, 1, 1], None),  # a fractional x
    ([0, 1, 1, 0, 0, 1], [1, 1, 1, 1, 1, 1], [0.0, 0, 0, 1, 1, 1], None),  # a float z
    ([0, 1, 1, 0, 0, 1], None, [0, 0, 0, 1, 1, 1], BasisSpec(size=2)),
])
def test_other_inputs_take_the_stratum_loop(stratum_loop, x, w, z, basis):
    y = [0, 1, 0, 1, 1, 0]
    got = exact(conditional_maximal_correlation, x, y, z, w, basis)
    assert got == exact(ref_conditional_maximal_correlation, x, y, z, w, basis)
    assert stratum_loop == [1, 1]


def test_boolean_strata_keep_boolean_keys():
    x = np.array([0, 1, 0, 1, 1, 0, 1, 1.0])
    y = np.array([0, 1, 1, 1, 0, 0, 1, 0.0])
    z = np.array([False] * 4 + [True] * 4)
    got = exact(conditional_maximal_correlation, x, y, z)
    assert got == exact(ref_conditional_maximal_correlation, x, y, z)
    assert [(k, t) for k, t, _ in got[0]] == [(False, bool), (True, bool)]


def test_every_stratum_degenerate_raises_alike():
    x, y, z = np.array([0, 0, 1.0]), np.array([0, 1, 1.0]), np.array([3, 3, 9])
    got = exact(conditional_maximal_correlation, x, y, z)
    assert got == ("ConstantInputError", "every stratum is degenerate")
    assert got == exact(ref_conditional_maximal_correlation, x, y, z)


def test_large_stratum_levels_index_by_unique(monkeypatch):
    """z = [0, 10**9]: the strata are indexed among np.unique(z), so no
    table of 10**9 cells is asked for."""
    tables = []
    bincount = np.bincount

    def spy(key, weights=None, minlength=0):
        cells = max(minlength, int(np.max(key)) + 1 if len(key) else 0)
        tables.append(cells)
        assert cells <= 4 * len(key) + 4, f"a table of {cells} cells for {len(key)} records"
        return bincount(key, weights, minlength)

    monkeypatch.setattr(np, "bincount", spy)
    x = np.array([0, 1, 1, 0, 0, 1, 1.0])
    y = np.array([0, 1, 0, 0, 1, 1, 0.0])
    z = np.array([0, 0, 0, 10**9, 10**9, 10**9, 10**9])
    got = exact(conditional_maximal_correlation, x, y, z)
    monkeypatch.undo()
    assert got == exact(ref_conditional_maximal_correlation, x, y, z)
    assert [k for k, _, _ in got[0]] == [0, 10**9]
    assert tables == [8]
