"""Tests for unary and binary predicates (repro.core.predicates)."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hcq_to_pcea import hcq_to_pcea
from repro.core.predicates import (
    AtomJoinEquality,
    AtomUnaryPredicate,
    AttributeFilter,
    LambdaBinaryPredicate,
    LambdaUnaryPredicate,
    ProjectionEquality,
    RelationPredicate,
    SelfJoinEquality,
    SelfJoinUnaryPredicate,
    TrueEquality,
    TruePredicate,
    VariableAtomEquality,
    unify_self_join_atoms,
)
from repro.cq.query import Atom, Variable, parse_query
from repro.cq.schema import Tuple

X, Y, Z, V = Variable("x"), Variable("y"), Variable("z"), Variable("v")


class TestUnaryPredicates:
    def test_true_predicate(self):
        assert TruePredicate().holds(Tuple("Anything", (1,)))

    def test_relation_predicate(self):
        pred = RelationPredicate("T")
        assert pred.holds(Tuple("T", (1,)))
        assert not pred.holds(Tuple("S", (1, 2)))
        multi = RelationPredicate({"R", "S"})
        assert multi.holds(Tuple("R", (1, 2)))
        assert multi.holds(Tuple("S", (1, 2)))

    def test_atom_unary_predicate(self):
        pred = AtomUnaryPredicate(Atom("S", (X, X)))
        assert pred.holds(Tuple("S", (3, 3)))
        assert not pred.holds(Tuple("S", (3, 4)))
        assert not pred.holds(Tuple("R", (3, 3)))

    def test_atom_unary_predicate_with_constant(self):
        pred = AtomUnaryPredicate(Atom("S", (2, Y)))
        assert pred.holds(Tuple("S", (2, 9)))
        assert not pred.holds(Tuple("S", (3, 9)))

    def test_lambda_unary(self):
        pred = LambdaUnaryPredicate(lambda t: t.value(0) > 5, "gt5")
        assert pred.holds(Tuple("T", (6,)))
        assert not pred.holds(Tuple("T", (5,)))
        assert str(pred) == "gt5"

    def test_combinators(self):
        conj = RelationPredicate("T") & LambdaUnaryPredicate(lambda t: t.value(0) > 5)
        assert conj.holds(Tuple("T", (6,)))
        assert not conj.holds(Tuple("T", (3,)))
        disj = RelationPredicate("T") | RelationPredicate("S")
        assert disj.holds(Tuple("S", (1, 2)))

    def test_attribute_filter(self):
        pred = AttributeFilter("Buy", 1, ">", 100)
        assert pred.holds(Tuple("Buy", (7, 150)))
        assert not pred.holds(Tuple("Buy", (7, 50)))
        assert not pred.holds(Tuple("Sell", (7, 150)))
        assert not pred.holds(Tuple("Buy", (7,)))

    def test_attribute_filter_type_mismatch_is_false(self):
        pred = AttributeFilter("Buy", 0, "<", 10)
        assert not pred.holds(Tuple("Buy", ("not-a-number", 1)))


class TestEqualityPredicates:
    def test_true_equality(self):
        eq = TrueEquality()
        assert eq.holds(Tuple("A", (1,)), Tuple("B", (2, 3)))
        assert eq.left_key(Tuple("A", (1,))) == ()

    def test_projection_equality(self):
        eq = ProjectionEquality({"T": (0,)}, {"S": (0,)})
        assert eq.holds(Tuple("T", (2,)), Tuple("S", (2, 11)))
        assert not eq.holds(Tuple("T", (3,)), Tuple("S", (2, 11)))
        assert eq.left_key(Tuple("S", (2, 11))) is None  # S is not a left relation
        assert eq.right_key(Tuple("T", (2,))) is None

    def test_projection_equality_out_of_range_positions(self):
        eq = ProjectionEquality({"T": (5,)}, {"S": (0,)})
        assert eq.left_key(Tuple("T", (2,))) is None

    def test_atom_join_equality_shared_variables(self):
        eq = AtomJoinEquality(Atom("S", (X, Y)), Atom("R", (X, Y)))
        assert eq.holds(Tuple("S", (2, 11)), Tuple("R", (2, 11)))
        assert not eq.holds(Tuple("S", (2, 11)), Tuple("R", (2, 12)))
        assert not eq.holds(Tuple("S", (2, 11)), Tuple("S", (2, 11)))  # wrong relation on the right

    def test_atom_join_equality_without_shared_variables(self):
        eq = AtomJoinEquality(Atom("T", (X,)), Atom("U", (Y,)))
        assert eq.holds(Tuple("T", (1,)), Tuple("U", (2,)))

    def test_atom_join_equality_respects_left_atom_structure(self):
        eq = AtomJoinEquality(Atom("S", (X, X)), Atom("R", (X, Y)))
        assert not eq.holds(Tuple("S", (1, 2)), Tuple("R", (1, 5)))
        assert eq.holds(Tuple("S", (1, 1)), Tuple("R", (1, 5)))

    def test_variable_atom_equality(self):
        # Atoms below the q-tree variable y of Q0: S(x,y) and R(x,y); target T(x).
        eq = VariableAtomEquality([Atom("S", (X, Y)), Atom("R", (X, Y))], Atom("T", (X,)))
        assert eq.holds(Tuple("S", (2, 11)), Tuple("T", (2,)))
        assert eq.holds(Tuple("R", (2, 11)), Tuple("T", (2,)))
        assert not eq.holds(Tuple("R", (3, 11)), Tuple("T", (2,)))
        assert eq.left_key(Tuple("T", (2,))) is None

    def test_variable_atom_equality_rejects_inconsistent_shared_sets(self):
        with pytest.raises(ValueError):
            VariableAtomEquality([Atom("S", (X, Y)), Atom("R", (Z, V))], Atom("T", (X,)))

    def test_lambda_binary(self):
        pred = LambdaBinaryPredicate(lambda a, b: a.value(0) < b.value(0))
        assert pred.holds(Tuple("T", (1,)), Tuple("T", (2,)))
        assert not pred.holds(Tuple("T", (2,)), Tuple("T", (1,)))


class TestSelfJoinPredicates:
    def test_unify_self_join_atoms_merges_classes(self):
        unified = unify_self_join_atoms([Atom("R", (X, Y, Z)), Atom("R", (X, Y, V))])
        # Positions 0 and 1 keep separate classes, position 2 is its own class.
        tup_ok = Tuple("R", (1, 2, 3))
        assert unified.matches(tup_ok)

    def test_unify_repeated_variable_within_atom(self):
        unified = unify_self_join_atoms([Atom("R", (X, X))])
        assert unified.matches(Tuple("R", (4, 4)))
        assert not unified.matches(Tuple("R", (4, 5)))

    def test_unify_cross_atom_equalities(self):
        # R(x, y) and R(y, x) force both positions equal.
        unified = unify_self_join_atoms([Atom("R", (X, Y)), Atom("R", (Y, X))])
        assert unified.matches(Tuple("R", (7, 7)))
        assert not unified.matches(Tuple("R", (7, 8)))

    def test_unify_with_constants(self):
        unified = unify_self_join_atoms([Atom("R", (2, Y)), Atom("R", (X, 3))])
        assert unified.matches(Tuple("R", (2, 3)))
        assert not unified.matches(Tuple("R", (2, 4)))

    def test_unify_with_conflicting_constants_is_unsatisfiable(self):
        unified = unify_self_join_atoms([Atom("R", (2, Y)), Atom("R", (3, Y))])
        assert not unified.matches(Tuple("R", (2, 5)))
        assert not unified.matches(Tuple("R", (3, 5)))

    def test_unify_requires_same_relation(self):
        with pytest.raises(ValueError):
            unify_self_join_atoms([Atom("R", (X,)), Atom("S", (X,))])
        with pytest.raises(ValueError):
            unify_self_join_atoms([])

    def test_self_join_unary_predicate(self):
        pred = SelfJoinUnaryPredicate([Atom("R", (X, Y, Z)), Atom("R", (X, Y, V))])
        assert pred.holds(Tuple("R", (1, 2, 3)))
        assert not pred.holds(Tuple("S", (1, 2, 3)))

    def test_self_join_equality_on_shared_variables(self):
        left = [Atom("R", (X, Y, Z))]
        right = [Atom("U", (X, Y))]
        eq = SelfJoinEquality(left, right)
        assert eq.holds(Tuple("R", (1, 2, 9)), Tuple("U", (1, 2)))
        assert not eq.holds(Tuple("R", (1, 2, 9)), Tuple("U", (1, 3)))

    def test_self_join_equality_group_vs_group(self):
        eq = SelfJoinEquality([Atom("R", (X, Y, Z)), Atom("R", (X, Y, V))], [Atom("U", (X, Y))])
        assert eq.holds(Tuple("R", (1, 2, 3)), Tuple("U", (1, 2)))
        assert not eq.holds(Tuple("R", (1, 2, 3)), Tuple("U", (2, 2)))

    def test_self_join_equality_requires_matching_unified_atom(self):
        eq = SelfJoinEquality([Atom("R", (X, X))], [Atom("U", (X,))])
        assert eq.left_key(Tuple("R", (1, 2))) is None
        assert eq.left_key(Tuple("R", (1, 1))) == (1,)


class TestCanonicalKeys:
    """Equal canonical keys must imply equal extensions (memoisation soundness)."""

    def test_structural_predicates_share_keys(self):
        assert TruePredicate().canonical_key() == TruePredicate().canonical_key()
        assert (
            RelationPredicate({"T", "S"}).canonical_key()
            == RelationPredicate({"S", "T"}).canonical_key()
        )
        assert (
            AtomUnaryPredicate(Atom("S", (X, Y))).canonical_key()
            == AtomUnaryPredicate(Atom("S", (X, Y))).canonical_key()
        )
        assert (
            AttributeFilter("R", 0, ">", 5).canonical_key()
            == AttributeFilter("R", 0, ">", 5).canonical_key()
        )

    def test_distinct_predicates_get_distinct_keys(self):
        assert (
            AttributeFilter("R", 0, ">", 5).canonical_key()
            != AttributeFilter("R", 0, ">", 6).canonical_key()
        )
        assert (
            AttributeFilter("R", 0, ">", 5).canonical_key()
            != AttributeFilter("R", 0, ">=", 5).canonical_key()
        )
        assert (
            AtomUnaryPredicate(Atom("S", (X, Y))).canonical_key()
            != AtomUnaryPredicate(Atom("S", (X, X))).canonical_key()
        )

    def test_lambda_shares_only_same_callable(self):
        func = lambda t: True  # noqa: E731
        assert (
            LambdaUnaryPredicate(func).canonical_key()
            == LambdaUnaryPredicate(func, description="other").canonical_key()
        )
        assert (
            LambdaUnaryPredicate(func).canonical_key()
            != LambdaUnaryPredicate(lambda t: True).canonical_key()
        )

    def test_default_key_is_identity_based(self):
        class Opaque(TruePredicate):
            def canonical_key(self):
                return super(TruePredicate, self).canonical_key()

        a, b = Opaque(), Opaque()
        assert a.canonical_key() == a.canonical_key()
        assert a.canonical_key() != b.canonical_key()

    def test_compiled_filtered_unary_keys(self):
        from repro.engine.compiler import compile_pattern
        from repro.engine.dsl import atom, conjunction

        def transitions(threshold):
            pattern = conjunction(
                atom("S", "x", "y", filters=[("y", "<", threshold)]),
                atom("R", "x", "y"),
            )
            return compile_pattern(pattern).dispatch_index().all_transitions()

        same = {c.pred_key for c in transitions(5)} & {c.pred_key for c in transitions(5)}
        assert same  # shared groups across two compilations of the same pattern
        # The filtered S-transitions differ between thresholds.
        filtered_5 = [c for c in transitions(5) if "<" in str(c.unary)]
        filtered_6 = [c for c in transitions(6) if "<" in str(c.unary)]
        assert filtered_5 and filtered_6
        assert {c.pred_key for c in filtered_5}.isdisjoint(
            {c.pred_key for c in filtered_6}
        )


class TestConstantGuards:
    def test_equality_filter_guards(self):
        assert AttributeFilter("R", 1, "==", 7).constant_guard() == (1, 7)
        assert AttributeFilter("R", 1, ">", 7).constant_guard() is None
        assert AttributeFilter("R", 1, "!=", 7).constant_guard() is None

    def test_atom_constants_guard(self):
        assert AtomUnaryPredicate(Atom("S", (2, Y))).constant_guard() == (0, 2)
        assert AtomUnaryPredicate(Atom("S", (X, Y))).constant_guard() is None
        assert AtomUnaryPredicate(Atom("S", (X, 9))).constant_guard() == (1, 9)

    def test_self_join_unified_constants_guard(self):
        predicate = SelfJoinUnaryPredicate([Atom("R", (2, X)), Atom("R", (Y, X))])
        assert predicate.constant_guard() == (0, 2)

    def test_guard_contract_holds(self):
        # Whenever the predicate accepts a tuple, the guard value matches.
        predicates = [
            AttributeFilter("R", 0, "==", 3),
            AtomUnaryPredicate(Atom("R", (3, Y))),
        ]
        for predicate in predicates:
            position, value = predicate.constant_guard()
            for candidate in [Tuple("R", (3, 1)), Tuple("R", (4, 1)), Tuple("R", ())]:
                if predicate.holds(candidate):
                    assert candidate.value(position) == value

    def test_base_predicates_have_no_guard(self):
        assert TruePredicate().constant_guard() is None
        assert RelationPredicate("T").constant_guard() is None
        assert LambdaUnaryPredicate(lambda t: True).constant_guard() is None


# ------------------------------------------------------- differential key tests
# The lowered HCQ predicates precompute their keys as per-relation tables.  The
# oracles below derive each key on the call itself: match the atom, then look
# up the first position of every shared variable.  (The ``("*",)`` wildcard
# branch cannot fire: the constructors only share variables every atom has.)
RELATIONS = ("R", "S")
VARIABLES = (X, Y, Z, V)
PRIVATE = (Variable("p"), Variable("q"))
CONSTANTS = (0, 1)
VALUES = st.integers(min_value=0, max_value=2)


def _oracle_shared_variable_key(atom, shared, tup):
    if not atom.matches(tup):
        return None
    values = []
    for variable in shared:
        positions = atom.positions_of(variable)
        if not positions:
            values.append(("*",))
        else:
            values.append(tup.value(positions[0]))
    return tuple(values)


def _oracle_first_position_of(atoms, variable):
    for atom in atoms:
        positions = atom.positions_of(variable)
        if positions:
            return positions[0]
    return None


def _oracle_self_join_key(atoms, unified, shared, tup):
    if not unified.matches(tup):
        return None
    values = []
    for variable in shared:
        position = _oracle_first_position_of(atoms, variable)
        if position is None or position >= tup.arity:
            return None
        values.append(tup.value(position))
    return tuple(values)


def _homomorphism_exists(pairs):
    """Brute force: one assignment maps every atom onto its paired tuple."""
    assignment = {}
    for atom, tup in pairs:
        if atom.relation != tup.relation or atom.arity != tup.arity:
            return False
        for term, value in zip(atom.terms, tup.values):
            if isinstance(term, Variable):
                if assignment.setdefault(term, value) != value:
                    return False
            elif term != value:
                return False
    return True


def _atoms(relation=st.sampled_from(RELATIONS), terms=st.sampled_from(VARIABLES + CONSTANTS)):
    return st.builds(
        lambda rel, ts: Atom(rel, tuple(ts)), relation, st.lists(terms, max_size=3)
    )


def _random_tuples():
    return st.builds(
        lambda rel, vs: Tuple(rel, tuple(vs)),
        st.sampled_from(RELATIONS + ("T",)),
        st.lists(VALUES, max_size=3),
    )


def _tuples_near(atoms):
    """Random tuples (wrong relation or arity included) and images of ``atoms``."""

    def image(atom, values):
        assignment = {v: values[i % len(values)] for i, v in enumerate(sorted(atom.variables()))}
        return atom.instantiate(assignment)

    images = st.builds(
        image, st.sampled_from(list(atoms)), st.lists(VALUES, min_size=1, max_size=4)
    )
    return st.one_of(_random_tuples(), images)


class TestLoweredEqualityDifferential:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_atom_join_equality(self, data):
        left, right = data.draw(_atoms()), data.draw(_atoms())
        eq = AtomJoinEquality(left, right)
        first = data.draw(_tuples_near([left, right]))
        second = data.draw(_tuples_near([left, right]))
        for tup in (first, second):
            assert eq.left_key(tup) == _oracle_shared_variable_key(left, eq.shared, tup)
            assert eq.right_key(tup) == _oracle_shared_variable_key(right, eq.shared, tup)
        assert eq.holds(first, second) == _homomorphism_exists([(left, first), (right, second)])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_variable_atom_equality_first_match_wins(self, data):
        right = data.draw(_atoms())
        shared = data.draw(
            st.lists(st.sampled_from(sorted(right.variables())), unique=True)
            if right.variables()
            else st.just([])
        )
        extra = st.sampled_from(tuple(shared) + PRIVATE + CONSTANTS)

        def left_atom(relation, extras, order):
            terms = list(shared) + extras
            return Atom(relation, tuple(terms[i] for i in order))

        lefts = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            extras = data.draw(st.lists(extra, max_size=2))
            order = data.draw(st.permutations(range(len(shared) + len(extras))))
            lefts.append(left_atom(data.draw(st.sampled_from(RELATIONS)), extras, order))
        eq = VariableAtomEquality(lefts, right)
        first = data.draw(_tuples_near(lefts + [right]))
        second = data.draw(_tuples_near(lefts + [right]))
        for tup in (first, second):
            oracle = next(
                (
                    key
                    for key in (_oracle_shared_variable_key(a, eq.shared, tup) for a in lefts)
                    if key is not None
                ),
                None,
            )
            assert eq.left_key(tup) == oracle
            assert eq.right_key(tup) == _oracle_shared_variable_key(right, eq.shared, tup)
        matched = next((a for a in lefts if a.matches(first)), None)
        expected = matched is not None and _homomorphism_exists([(matched, first), (right, second)])
        assert eq.holds(first, second) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_self_join_equality(self, data):
        def group():
            relation = data.draw(st.sampled_from(RELATIONS))
            arity = data.draw(st.integers(min_value=0, max_value=3))
            terms = st.lists(
                st.sampled_from(VARIABLES + CONSTANTS), min_size=arity, max_size=arity
            )
            return [
                Atom(relation, tuple(data.draw(terms)))
                for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
            ]

        left, right = group(), group()
        eq = SelfJoinEquality(left, right)
        # Images of the unified atoms hit the merged positions often; an
        # unsatisfiable group's unified atom names an impossible relation, so
        # it is no image source (stream tuples never carry that name).
        unified = [u for u in (eq.left_unified, eq.right_unified) if u.relation in RELATIONS]
        first = data.draw(_tuples_near(left + right + unified))
        second = data.draw(_tuples_near(left + right + unified))
        for tup in (first, second):
            assert eq.left_key(tup) == _oracle_self_join_key(left, eq.left_unified, eq.shared, tup)
            assert eq.right_key(tup) == _oracle_self_join_key(
                right, eq.right_unified, eq.shared, tup
            )
        expected = _homomorphism_exists([(a, first) for a in left] + [(a, second) for a in right])
        assert eq.holds(first, second) == expected

    def test_self_join_equality_with_unsatisfiable_group(self):
        eq = SelfJoinEquality([Atom("R", (0, X)), Atom("R", (1, X))], [Atom("S", (X,))])
        for values in [(0, 5), (1, 5), (0, 0)]:
            assert eq.left_key(Tuple("R", values)) is None
            assert not eq.holds(Tuple("R", values), Tuple("S", (5,)))
        assert eq.right_key(Tuple("S", (5,))) == (5,)


class TestLoweredEqualityIdentity:
    QUERIES = [
        "Q(x, y) <- T(x), S(x, y), R(x, y)",
        "Q(x, y, z) <- R(x, y), R(x, z), S(x)",
        "Q(x, y) <- R(x, y), R(y, x), S(x)",
        "Q(x, y) <- R(x, y), S(x, 3), T(x, x)",
    ]

    @staticmethod
    def _binaries(text):
        pcea = hcq_to_pcea(parse_query(text))
        return [
            predicate
            for transition in pcea.transitions
            for predicate in transition.binaries.values()
        ]

    @staticmethod
    def _probe_tuples():
        return [
            Tuple(relation, values)
            for relation in ("R", "S", "T")
            for values in [(1,), (3,), (1, 1), (1, 2), (1, 3), (2, 2, 2)]
        ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_pickle_round_trip_keeps_equality_hash_and_keys(self, text):
        predicates = self._binaries(text)
        assert predicates
        for predicate in predicates:
            copy = pickle.loads(pickle.dumps(predicate))
            assert copy == predicate
            assert hash(copy) == hash(predicate)
            for tup in self._probe_tuples():
                assert copy.left_key(tup) == predicate.left_key(tup)
                assert copy.right_key(tup) == predicate.right_key(tup)

    @pytest.mark.parametrize("text", QUERIES)
    def test_compiling_twice_gives_equal_predicates(self, text):
        first, second = self._binaries(text), self._binaries(text)
        assert len(first) == len(second)
        assert set(first) == set(second)
        assert {hash(p) for p in first} == {hash(p) for p in second}
