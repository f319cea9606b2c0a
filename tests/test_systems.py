"""System backends: partition validation and compilation to word languages."""

from fractions import Fraction

import pytest

import invpressure as ip
from conftest import (
    brute_words,
    full_shift,
    random_finite_state,
    reference_partition_walk,
    words,
)


def affine_halving(interval=("0", "1")):
    return ip.AffineIntervalSystem(
        contraction=Fraction(1, 2),
        control_values={"u0": Fraction(0), "uhalf": Fraction(1, 2)},
        interval=(Fraction(interval[0]), Fraction(interval[1])),
        cut_points=(Fraction(1, 2),),
    )


class TestAffineValidation:
    def test_valid_halving_partition(self):
        # images: (1/2)*[0,1/2] + 0 = [0,1/4], (1/2)*[1/2,1] + 1/2 = [3/4,1]
        spec = ip.PartitionSpec(1, {1: ("u0",), 2: ("uhalf",)})
        report = ip.validate_invariant_partition(affine_halving(), spec)
        assert report.valid and report.violations == ()

    def test_invalid_with_witness_step(self):
        # cell [0,1/2) under uhalf maps into [1/2,3/4], outside Q=[0,1/2]
        sys = ip.AffineIntervalSystem(
            contraction=Fraction(1, 2),
            control_values={"u0": Fraction(0), "uhalf": Fraction(1, 2)},
            interval=(Fraction(0), Fraction(1, 2)),
            cut_points=(Fraction(1, 4),),
        )
        spec = ip.PartitionSpec(1, {1: ("uhalf",), 2: ("u0",)})
        report = ip.validate_invariant_partition(sys, spec)
        assert not report.valid
        symbol, step, _witness = report.violations[0]
        assert (symbol, step) == (1, 1)

    def test_tau_zero_rejected(self):
        with pytest.raises(ip.PreconditionError):
            ip.PartitionSpec(0, {})

    def test_intermediate_steps_checked(self):
        # two-step word: first step stays in, second escapes; witness step is 2
        sys = affine_halving()
        spec = ip.PartitionSpec(2, {1: ("u0", "uhalf"), 2: ("uhalf", "uhalf")})
        report = ip.validate_invariant_partition(sys, spec)
        assert report.valid  # [0,1/2) -> [0,1/4] -> [1/2,5/8]: inside [0,1]
        sys_small = ip.AffineIntervalSystem(
            contraction=Fraction(1, 2),
            control_values={"u0": Fraction(0), "uhalf": Fraction(1, 2)},
            interval=(Fraction(0), Fraction(9, 16)),
            cut_points=(Fraction(1, 2),),
        )
        report = ip.validate_invariant_partition(sys_small, spec)
        assert not report.valid
        assert report.violations[0][1] == 2


def two_cycle_system():
    return ip.FiniteStateSystem(
        ("p", "q"), {("p", "u"): "q", ("q", "u"): "p"}, ("p", "q"), {"p": 1, "q": 2}
    )


class TestFiniteState:
    def test_exhaustive_validation_catches_escape(self):
        sys = ip.FiniteStateSystem(
            ("p", "q", "out"),
            {("p", "u"): "q", ("q", "u"): "out", ("out", "u"): "out"},
            ("p", "q"),
            {"p": 1, "q": 2},
        )
        spec = ip.PartitionSpec(1, {1: ("u",), 2: ("u",)})
        report = ip.validate_invariant_partition(sys, spec)
        assert not report.valid
        assert report.violations[0][0] == 2

    def test_singleton_state_one_word_per_length(self):
        sys = ip.FiniteStateSystem(("x",), {("x", "u"): "x"}, ("x",), {"x": 1})
        lang = ip.itinerary_language(sys, ip.PartitionSpec(1, {1: ("u",)}))
        for n in range(1, 7):
            assert len(words(lang, n)) == 1

    def test_two_cycle_alternating_words(self):
        lang = ip.itinerary_language(two_cycle_system(), ip.PartitionSpec(1, {1: ("u",), 2: ("u",)}))
        assert set(words(lang, 3)) == {(1, 2, 1), (2, 1, 2)}

    def test_fixed_point_plus_two_cycle(self):
        sys = ip.FiniteStateSystem(
            ("f", "a", "b"),
            {("f", "u"): "f", ("a", "u"): "b", ("b", "u"): "a"},
            ("f", "a", "b"),
            {"f": 1, "a": 2, "b": 3},
        )
        lang = ip.itinerary_language(sys, ip.PartitionSpec(1, {1: ("u",), 2: ("u",), 3: ("u",)}))
        assert len(words(lang, 4)) == 3

    def test_word_count_bounded_by_states(self):
        sys = ip.FiniteStateSystem(
            ("a", "b", "c", "d"),
            {("a", "u"): "b", ("b", "u"): "c", ("c", "u"): "d", ("d", "u"): "b"},
            ("a", "b", "c", "d"),
            {"a": 1, "b": 1, "c": 2, "d": 2},
        )
        lang = ip.itinerary_language(sys, ip.PartitionSpec(1, {1: ("u",), 2: ("u",)}))
        counts = [len(words(lang, n)) for n in range(1, 9)]
        assert all(c <= 4 for c in counts)
        assert all(c2 <= c1 * 2 for c1, c2 in zip(counts, counts[1:]))

    def test_validation_required_before_language(self):
        sys = ip.FiniteStateSystem(
            ("p", "out"), {("p", "u"): "out", ("out", "u"): "out"}, ("p",), {"p": 1}
        )
        with pytest.raises(ip.PreconditionError):
            ip.itinerary_language(sys, ip.PartitionSpec(1, {1: ("u",)}))


class TestPartitionWalk:
    """One walk per state validates and compiles; its output must match a per-symbol walk."""

    @pytest.mark.parametrize("leak", [0.0, 0.05, 0.3])
    def test_violations_and_step_map_match_reference(self, rng, leak):
        seen_valid = seen_invalid = 0
        for _ in range(40):
            sys, spec = random_finite_state(
                rng, rng.randint(3, 30), rng.randint(1, 5), rng.randint(1, 4), leak
            )
            violations, step = reference_partition_walk(sys, spec)
            report = ip.validate_invariant_partition(sys, spec)
            assert report.violations == violations
            assert report.valid == (not violations)
            if violations:
                seen_invalid += 1
                with pytest.raises(ip.PreconditionError, match="first violation"):
                    ip.itinerary_language(sys, spec)
            else:
                seen_valid += 1
                lang = ip.itinerary_language(sys, spec)
                # state ids number the invariant set in order
                assert lang.states == sys.invariant_set
                assert dict(zip(lang.states, (lang.states[y] for y in lang.step))) == step
                assert lang.label.tolist() == [sys.cell_of[x] for x in lang.states]
        if leak:
            assert seen_invalid and (seen_valid or leak > 0.1)
        else:
            assert seen_valid == 40

    def test_several_violations_per_symbol_keep_state_order(self):
        # states of cell 2 come first in Q but report after cell 1's
        sys = ip.FiniteStateSystem(
            ("c", "a", "d", "b", "out"),
            {("a", "u"): "out", ("b", "u"): "a", ("b", "v"): "out", ("c", "u"): "out"},
            ("c", "a", "d", "b"),
            {"c": 2, "a": 1, "d": 2, "b": 1},
        )
        spec = ip.PartitionSpec(2, {1: ("u", "v"), 2: ("u", "u")})
        report = ip.validate_invariant_partition(sys, spec)
        assert [(i, j) for i, j, _w in report.violations] == [(1, 1), (1, 2), (2, 1), (2, 1)]
        assert "'a'" in report.violations[0][2] and "'c'" in report.violations[2][2]
        assert report.violations == reference_partition_walk(sys, spec)[0]


class TestCompileSft:
    def test_full_relation_counts(self):
        lang = full_shift(3)
        for n in range(1, 6):
            assert len(words(lang, n)) == 3**n

    def test_golden_mean_fibonacci_recurrence(self):
        lang = ip.compile_sft([1, 2], [(1, 1), (1, 2), (2, 1)])
        counts = [len(words(lang, n)) for n in range(1, 13)]
        assert counts[:3] == [2, 3, 5]
        for a, b, c in zip(counts, counts[1:], counts[2:]):
            assert c == a + b
        assert set(words(lang, 4)) == brute_words(lang, 4)

    def test_missing_out_edge_rejected(self):
        with pytest.raises(ip.PreconditionError):
            ip.compile_sft([1, 2], [(1, 1)])

    def test_empty_relation_rejected(self):
        with pytest.raises(ip.PreconditionError):
            ip.compile_sft([1], [])

    def test_symbol_mismatch_with_partition(self):
        spec = ip.PartitionSpec(1, {1: ("u",), 2: ("u",)})
        with pytest.raises(ip.PreconditionError):
            ip.compile_sft([1, 2, 3], [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)], spec)
