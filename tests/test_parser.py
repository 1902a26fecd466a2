"""Grammar coverage, elaboration errors, type inference, and round-trips."""

from __future__ import annotations

import pytest

from conftest import addo_program, corpus_program, nat, unnat
from kanrel.goals import (
    ArityMismatch,
    Fresh,
    TypeMismatch,
    UnboundVariable,
    UnknownRelation,
)
from kanrel.interp import run
from kanrel.parser import (
    ParseError,
    UnresolvedType,
    corpus_names,
    load_corpus_text,
    parse_ground_term,
    parse_program,
)
from kanrel.pretty import format_program, format_term, relation_vars
from kanrel.schema import DuplicateName, Hole, Node, UnknownCtor, VarId

NAT_TEXT = """
# the smallest interesting program
type Nat = O | S(Nat).

rel addo(x: Nat, y: Nat, z: Nat) =
    x == O, y == z
  | fresh x2, z2 . (x == S(x2), z == S(z2), addo(x2, y, z2)).
"""


def h_nat(prog, i=0):
    return Hole(VarId(100 + i, "Nat", f"q{i}"))


class TestCorpus:
    def test_bundled_names(self):
        assert corpus_names() == ("balance", "nat", "sort", "typecheck")

    @pytest.mark.parametrize("name", ["nat", "sort", "balance", "typecheck"])
    def test_every_corpus_file_elaborates(self, name):
        prog = corpus_program(name)
        assert prog.relations

    def test_missing_corpus_file(self):
        with pytest.raises(ParseError):
            load_corpus_text("mystery")

    @pytest.mark.parametrize("name", ["nat", "sort", "balance", "typecheck"])
    def test_variable_ids_run_without_gaps(self, name):
        # Each relation draws its variables' ids once, in declaration order.
        prog = corpus_program(name)
        ids = [v.id for rel in prog.relations for v in relation_vars(rel)]
        assert ids == list(range(len(ids)))

    def test_corpus_nat_matches_hand_built_program(self):
        parsed = corpus_program("nat")
        built = addo_program()
        q = (h_nat(parsed, 0), h_nat(parsed, 1), nat(3))
        assert run(parsed, "addo", q) == run(built, "addo", q)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["nat", "sort", "balance", "typecheck"])
    def test_render_parse_render_is_stable(self, name):
        rendered = format_program(corpus_program(name))
        again = format_program(parse_program(rendered))
        assert again == rendered

    def test_hand_built_program_survives_rendering(self):
        built = addo_program()
        reparsed = parse_program(format_program(built))
        q = (h_nat(built, 0), h_nat(built, 1), nat(4))
        assert run(built, "addo", q) == run(reparsed, "addo", q)


class TestParsing:
    def test_basic_program(self):
        prog = parse_program(NAT_TEXT)
        answers = run(prog, "addo", (nat(2), nat(2), h_nat(prog)))
        assert [unnat(t[2]) for t in answers] == [4]

    def test_comments_and_whitespace_are_trivia(self):
        prog = parse_program("# leading\ntype Nat = O | S(Nat). # trailing\n")
        assert prog.schema.types[0].name == "Nat"

    def test_fresh_body_can_be_a_bare_atom(self):
        text = "type Nat = O | S(Nat).\nrel p(x: Nat) = fresh y . y == x.\n"
        rel = parse_program(text).relation("p")
        assert isinstance(rel.body, Fresh)

    def test_nested_disjunction_parses_with_parens(self):
        text = (
            "type Nat = O | S(Nat).\n"
            "rel p(x: Nat) = (x == O | x == S(O)) | x == S(S(O)).\n"
        )
        prog = parse_program(text)
        assert len(run(prog, "p", (h_nat(prog),))) == 3

    @pytest.mark.parametrize(
        "text",
        [
            "type Nat = O | S(Nat)",  # missing period
            "type nat = O.",  # type names start uppercase
            "type Nat = o.",  # ctor names start uppercase
            "rel P(x: Nat) = x == x.",  # relation names start lowercase
            "type Nat = O | S(Nat). rel p(x: Nat) = x = O.",  # '=' is not '=='
            "type Nat = O. rel p(x: Nat) = fresh . x == O.",  # missing names
            "type Nat = O. rel p(x: Nat) = x == _.",  # '_' is not a token
            "type Nat = O. rel fresh(x: Nat) = x == O.",  # keyword as name
            "$",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse_program(text)

    def test_error_messages_carry_positions(self):
        with pytest.raises(ParseError, match=r"line 2"):
            parse_program("type Nat = O.\n??")


class TestElaborationErrors:
    HEADER = "type Nat = O | S(Nat).\ntype NatList = Nil | Cons(Nat, NatList).\n"

    def test_unknown_ctor(self):
        with pytest.raises(UnknownCtor):
            parse_program(self.HEADER + "rel p(x: Nat) = x == Succ(O).")

    def test_ctor_arity(self):
        with pytest.raises(ArityMismatch):
            parse_program(self.HEADER + "rel p(x: Nat) = x == S(O, O).")

    def test_slot_type_mismatch(self):
        with pytest.raises(TypeMismatch):
            parse_program(self.HEADER + "rel p(x: NatList) = x == Cons(Nil, Nil).")

    def test_unify_type_mismatch(self):
        with pytest.raises(TypeMismatch):
            parse_program(self.HEADER + "rel p(x: Nat, l: NatList) = x == l.")

    def test_call_arity(self):
        with pytest.raises(ArityMismatch):
            parse_program(
                self.HEADER
                + "rel q(x: Nat) = x == O.\nrel p(x: Nat) = q(x, x)."
            )

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelation):
            parse_program(self.HEADER + "rel p(x: Nat) = q(x).")

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            parse_program(self.HEADER + "rel p(x: Nat) = x == ghost.")

    def test_fresh_shadowing(self):
        with pytest.raises(DuplicateName):
            parse_program(self.HEADER + "rel p(x: Nat) = fresh x . x == O.")

    def test_fresh_shadowing_inside_a_nested_disjunction(self):
        with pytest.raises(DuplicateName, match="fresh shadows y"):
            parse_program(
                self.HEADER
                + "rel p(x: Nat) = fresh y . (x == y | (x == O | fresh y . y == O))."
            )

    def test_sibling_fresh_scopes_may_reuse_a_name(self):
        prog = parse_program(
            self.HEADER + "rel p(x: Nat) = (fresh y . x == S(y)) | (fresh y . y == x)."
        )
        assert len(run(prog, "p", (nat(2),))) == 2

    def test_scope_errors_come_before_later_syntax_errors(self):
        # Names are resolved while parsing, so the unbound variable of the
        # first relation is reported before the second relation is read.
        with pytest.raises(UnboundVariable, match="ghost"):
            parse_program(self.HEADER + "rel p(x: Nat) = x == ghost.\nrel q(x: Nat) = ==.")

    def test_duplicate_relation(self):
        with pytest.raises(DuplicateName):
            parse_program(
                self.HEADER + "rel p(x: Nat) = x == O.\nrel p(y: Nat) = y == O."
            )

    def test_undeclared_parameter_type(self):
        with pytest.raises(TypeMismatch, match="Foo"):
            parse_program(self.HEADER + "rel p(x: Foo) = x == x.")

    def test_duplicate_parameter(self):
        with pytest.raises(DuplicateName):
            parse_program(self.HEADER + "rel p(x: Nat, x: Nat) = x == O.")


class TestTypeInference:
    HEADER = "type Nat = O | S(Nat).\ntype NatList = Nil | Cons(Nat, NatList).\n"

    def test_inference_through_ctor_slots(self):
        prog = parse_program(self.HEADER + "rel p(x: Nat) = fresh n . x == S(n).")
        fresh = prog.relation("p").body
        assert isinstance(fresh, Fresh) and fresh.vars[0].type == "Nat"

    def test_inference_through_variable_chains(self):
        prog = parse_program(
            self.HEADER + "rel p(l: NatList) = fresh a, b . (a == b, b == l)."
        )
        fresh = prog.relation("p").body
        assert {v.type for v in fresh.vars} == {"NatList"}

    def test_inference_through_call_signatures(self):
        prog = parse_program(
            self.HEADER
            + "rel q(n: Nat, l: NatList) = l == Cons(n, Nil).\n"
            + "rel p(x: Nat) = fresh out . q(x, out)."
        )
        fresh = prog.relation("p").body
        assert fresh.vars[0].type == "NatList"

    def test_unconstrained_variable_rejected(self):
        with pytest.raises(UnresolvedType):
            parse_program(self.HEADER + "rel p(x: Nat) = fresh a . x == O.")

    def test_conflicting_uses_rejected(self):
        with pytest.raises(TypeMismatch):
            parse_program(
                self.HEADER + "rel p(x: Nat, l: NatList) = fresh a . (x == a, l == a)."
            )


class TestDeepPrograms:
    def test_term_deeper_than_the_recursion_limit_elaborates(self):
        # Elaboration walks terms without a frame per level.
        deep = "S(" * 50_000 + "O" + ")" * 50_000
        prog = parse_program(f"type Nat = O | S(Nat).\nrel big(x: Nat) = x == {deep}.\n")
        body = prog.relation("big").body
        # Compared as text: dataclass == recurses once per level.
        assert format_term(body.rhs) == deep
        assert body.lhs == Hole(prog.relation("big").params[0])


class TestQueryTerms:
    def test_ground_term(self):
        term = parse_ground_term("Cons(S(O), Nil)")
        assert term == Node("Cons", (nat(1), Node("Nil", ())))

    def test_named_variables_rejected(self):
        for text in ["x", "S(x)"]:
            with pytest.raises(ParseError):
                parse_ground_term(text)

    def test_hole_inside_a_constructor(self):
        # '_' is no hole in a ground term: it is not a token at all.
        for text in ["_", "Cons(_, Nil)"]:
            with pytest.raises(ParseError):
                parse_ground_term(text)

    def test_trailing_junk_rejected(self):
        for text in ["O O", "O, O", "S(O))"]:
            with pytest.raises(ParseError):
                parse_ground_term(text)

    def test_deep_term(self):
        # Compared as text: dataclass == recurses once per level.
        text = "S(" * 10_000 + "O" + ")" * 10_000
        assert format_term(parse_ground_term(text)) == text

    def test_term_deeper_than_the_recursion_limit(self):
        # Recursive descent raised RecursionError from about S^20000(O).
        text = "S(" * 50_000 + "O" + ")" * 50_000
        assert format_term(parse_ground_term(text)) == text
