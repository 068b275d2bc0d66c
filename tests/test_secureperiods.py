"""Security-aware period pruning: admissibility rule and menu filtering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maars.secureperiods import admissible, prune_security
from maars.taskmodel import TrustedTask, UntrustedTask


def victim(menu):
    return TrustedTask(
        id=1, period_menu=tuple(menu), wcet=1, aew=1, criticality=1.0, tap=0.5
    )


ATTACKER = UntrustedTask(id=2, period=20, wcet=2)


class TestAdmissible:
    def test_strict_when_offset_equals_wcet(self):
        # p' = 12 = 1*10 + 2 with e_j = 2
        assert admissible(12, 10, ATTACKER) is True

    def test_relaxed_inside_band(self):
        # k' = 5 in [e_j, p-1] = [2, 9]
        assert admissible(15, 10, ATTACKER) is True
        assert admissible(19, 10, ATTACKER) is True  # k' = 9 = p-1

    def test_inadmissible_below_wcet(self):
        assert admissible(11, 10, ATTACKER) is False  # k' = 1 < 2
        assert admissible(20, 10, ATTACKER) is False  # k' = 0

    def test_candidate_must_exceed_base(self):
        with pytest.raises(ValueError):
            admissible(10, 10, ATTACKER)

    def test_multiple_of_base_plus_offset(self):
        # p' = 32 = 3*10 + 2: same verdict as 12
        assert admissible(32, 10, ATTACKER) is True

    @given(p_base=st.integers(1, 60), extra=st.integers(1, 300), wcet=st.integers(1, 70))
    def test_matches_the_strict_or_relaxed_cases(self, p_base, extra, wcet):
        """The one comparison is the paper's classification: p' > p is
        admissible exactly when strict (k' = e_j) or relaxed
        (e_j <= k' <= p-1)."""
        p_prime = p_base + extra
        k = p_prime % p_base
        strict = k == wcet
        relaxed = wcet <= k <= p_base - 1
        attacker = UntrustedTask(id=2, period=80, wcet=wcet)
        assert admissible(p_prime, p_base, attacker) == (strict or relaxed)


class TestClassify:
    def test_per_attacker_verdicts(self):
        other = UntrustedTask(id=3, period=30, wcet=5)
        assert admissible(12, 10, ATTACKER) is True
        assert admissible(12, 10, other) is False  # k'=2 < e=5
        assert prune_security(victim([10, 12]), [10, 12], [ATTACKER, other]) == [10]


class TestPrune:
    def test_all_attackers_policy(self):
        menus = [10, 12, 15, 20]
        kept = prune_security(victim(menus), menus, [ATTACKER])
        # 12 strict, 15 relaxed, 20 (k'=0) dropped
        assert kept == [10, 12, 15]
        # every untrusted task judges: k' = 2 and 5 are both below the
        # second attacker's e = 6
        weak = UntrustedTask(id=9, period=40, wcet=6)
        assert prune_security(victim(menus), menus, [ATTACKER, weak]) == [10]

    def test_base_always_kept(self):
        kept = prune_security(victim([10, 11]), [10, 11], [ATTACKER])
        assert kept == [10]

    def test_base_must_be_candidate(self):
        with pytest.raises(ValueError):
            prune_security(victim([10, 12]), [12], [ATTACKER])

    def test_no_untrusted_keeps_everything(self):
        menus = [10, 11, 13]
        assert prune_security(victim(menus), menus, []) == menus

    def test_lu_menus_survive_pruning(self, lu_ts):
        """Bundled automotive menus were chosen to pass the untrusted set."""
        for t in lu_ts.trusted:
            kept = prune_security(t, list(t.period_menu), list(lu_ts.untrusted))
            assert kept == sorted(t.period_menu)
