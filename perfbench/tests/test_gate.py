"""The chase_deep correctness gate: every field but ``chase.rounds`` must match."""

import inproc
import run


class Outcome:
    def __init__(self, **chase):
        self.chase = {"status": "terminated", "steps": 14, "rounds": 3, "rows": 16}
        self.chase.update(chase)

    def to_dict(self):
        return {"verdict": "implied", "reason": "chase", "chase": dict(self.chase)}


def _run(*outcomes):
    return {"digests": [inproc.digest_without_rounds(o) for o in outcomes],
            "full_digests": [inproc.canonical_digest(o) for o in outcomes],
            "bad_counterexamples": []}


def test_rounds_alone_do_not_fail_the_gate_but_are_counted():
    got, want = _run(Outcome(rounds=4)), _run(Outcome(rounds=3))
    assert run.check_deep(got, want) == []
    assert run.rounds_only_differences(got, want) == 1


def test_any_other_chase_field_fails_the_gate():
    for field, value in (("steps", 15), ("rows", 17), ("status", "budget_exhausted")):
        got, want = _run(Outcome(**{field: value})), _run(Outcome())
        assert run.check_deep(got, want) == [
            "problem 0: answer differs from the rescan oracle"]
        assert run.rounds_only_differences(got, want) == 0
