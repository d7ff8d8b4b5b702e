import pytest

from roadcheck import dsl
from roadcheck.checker import TypecheckError, compile_text, typecheck
from roadcheck.dsl import ParseError, format_document, format_expr, parse
from roadcheck.rulepack import (DANGER_SPACE_RULES, RULE162_SDA,
                                RULE163_PULL_OUT)


def parse_expression(text):
    """The expression of ``const e = TEXT``; its columns start at 11."""
    return parse(f"const e = {text}").consts[0].expr


SIMPLE = ('assertion a { odd: urban type: invariant '
          'condition: speed_of("av") >= 0 }')


class TestParse:
    def test_single_assertion_document(self):
        doc = parse(SIMPLE)
        assert len(doc.assertions) == 1
        a = doc.assertions[0]
        assert a.name == "a"
        assert a.odd_tags == ("urban",)
        assert a.kind == "invariant"
        assert a.condition.op == ">="

    def test_unbalanced_brace_position(self):
        text = 'assertion a { odd: urban type: invariant condition: true'
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 1
        assert err.value.col >= len(text)

    def test_rule162_structure(self):
        doc = parse(RULE162_SDA)
        a = doc.assertions[0]
        assert a.kind == "execution"
        assert a.reference.op == "call"
        assert a.reference.value == "crosses_centreline"
        cond = a.condition
        assert cond.op == ">"
        calls = {arg.value for arg in cond.args}
        assert calls == {"distance_ahead", "sda"}

    def test_duplicate_assertion_ids(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse(SIMPLE + "\n" + SIMPLE)

    def test_window_required_for_temporal(self):
        text = ('assertion a { odd: x type: post_temporal '
                'reference: true condition: true }')
        with pytest.raises(ParseError, match="window"):
            parse(text)

    def test_window_forbidden_for_invariant(self):
        text = ('assertion a { odd: x type: invariant window: 2s '
                'condition: true }')
        with pytest.raises(ParseError, match="window"):
            parse(text)

    def test_invariant_rejects_reference(self):
        text = ('assertion a { odd: x type: invariant '
                'reference: true condition: true }')
        with pytest.raises(ParseError, match="reference"):
            parse(text)

    def test_execution_requires_reference(self):
        text = 'assertion a { odd: x type: execution condition: true }'
        with pytest.raises(ParseError, match="reference"):
            parse(text)

    def test_comments_and_durations(self):
        text = ('// header comment\n'
                'assertion a { odd: x type: post_temporal window: 500ms\n'
                '  reference: time() >= 1s // inline\n'
                '  condition: speed_of("av") > 0 }')
        doc = parse(text)
        assert doc.assertions[0].window == pytest.approx(0.5)

    def test_chained_comparison_rejected(self):
        with pytest.raises(ParseError, match="chain"):
            parse_expression("1 < 2 < 3")

    def test_const_declarations(self):
        text = ('const limit = 5 + 1\n'
                'assertion a { odd: x type: invariant '
                'condition: speed_of("av") < limit }')
        doc = parse(text)
        assert len(doc.consts) == 1
        compiled = typecheck(doc)
        cond = compiled[0].condition
        assert cond.args[1].op == "+"   # const inlined

    def test_node_equality_is_type_strict_and_ignores_spans(self):
        assert parse_expression("true") != parse_expression("1")
        assert parse_expression("1s") != parse_expression("1")
        assert parse_expression("f(1)") != parse_expression("f")
        assert parse_expression("(speed_of(\"av\"))") == \
            parse_expression('speed_of("av")')

    def test_duplicate_const_rejected(self):
        text = ('const gap = 5\nconst gap = 500\n'
                'assertion a { odd: x type: invariant condition: gap > 1 }')
        with pytest.raises(ParseError, match="duplicate const 'gap'") as err:
            parse(text)
        assert (err.value.line, err.value.col) == (2, 1)

    def test_error_totality_smoke(self):
        bad = ["assertion", "assertion a {", "const = 4", "1 +", "(",
               'assertion a { odd: }', "@", 'assertion a { odd: x type: bogus '
               'condition: true }', 'x "unterminated']
        for text in bad:
            with pytest.raises(ParseError):
                parse(text)


# tokens as (kind, value, line, col), EOF included, or the lexical error as
# (message, line, col); a digit that is not a decimal digit, such as a
# superscript two, is an unexpected character, not part of a number
LEXER_TABLE = [
    ("1e+", ("malformed number '1e+'", 1, 1)),
    ("1e-", ("malformed number '1e-'", 1, 1)),
    ("5ms", [("DURATION", 0.005, 1, 1), ("EOF", None, 1, 4)]),
    ("2sx", [("NUMBER", 2.0, 1, 1), ("IDENT", "sx", 1, 2),
             ("EOF", None, 1, 4)]),
    ("5msx 3s", [("NUMBER", 5.0, 1, 1), ("IDENT", "msx", 1, 2),
                 ("DURATION", 3.0, 1, 6), ("EOF", None, 1, 8)]),
    ("1e5s .5e-1ms", [("DURATION", 100000.0, 1, 1), ("DURATION", 5e-05, 1, 6),
                      ("EOF", None, 1, 13)]),
    (".5", [("NUMBER", 0.5, 1, 1), ("EOF", None, 1, 3)]),
    ("1.2.3", [("NUMBER", 1.2, 1, 1), ("NUMBER", 0.3, 1, 4),
               ("EOF", None, 1, 6)]),
    ('"a\\"b"', [("STRING", 'a"b', 1, 1), ("EOF", None, 1, 7)]),
    ('"a\\\nb" x', [("STRING", "a\nb", 1, 1), ("IDENT", "x", 1, 8),
                     ("EOF", None, 1, 9)]),
    ("x // tail", [("IDENT", "x", 1, 1), ("EOF", None, 1, 3)]),
    ("x\r\n\ty", [("IDENT", "x", 1, 1), ("IDENT", "y", 2, 2),
                  ("EOF", None, 2, 3)]),
    ("a <= b != c", [("IDENT", "a", 1, 1), ("PUNCT", "<=", 1, 3),
                     ("IDENT", "b", 1, 6), ("PUNCT", "!=", 1, 8),
                     ("IDENT", "c", 1, 11), ("EOF", None, 1, 12)]),
    ("\u0663", [("NUMBER", 3.0, 1, 1), ("EOF", None, 1, 2)]),  # Arabic-Indic 3
    ("\u2167", ("unexpected character '\u2167'", 1, 1)),  # Roman numeral 8
    ("x !y", ("unexpected character '!'", 1, 3)),
    ('"open', ("unterminated string", 1, 1)),
    ('a\n  "open\nb"', ("unterminated string", 2, 3)),
    ("\u00b2", ("unexpected character '\u00b2'", 1, 1)),  # superscript 2
]


class TestLexer:
    @pytest.mark.parametrize("text, expected", LEXER_TABLE,
                             ids=[repr(text) for text, _ in LEXER_TABLE])
    def test_tokens_and_errors(self, text, expected):
        if isinstance(expected, list):
            assert [(t.kind, t.value, t.line, t.col)
                    for t in dsl._lex(text)] == expected
        else:
            with pytest.raises(ParseError) as err:
                dsl._lex(text)
            message, line, col = expected
            assert str(err.value) == f"{line}:{col}: {message}"
            assert (err.value.line, err.value.col) == (line, col)

    def test_chained_comparison_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("a <= b != c")
        assert str(err.value) == "1:18: comparisons do not chain; parenthesise"
        assert err.value.expected == ()


class TestPrecedence:
    def test_not_binds_tighter_than_comparison(self):
        expr = parse_expression("not true == false")
        assert expr.op == "=="
        assert expr.args[0].op == "not"

    def test_arithmetic_tighter_than_comparison(self):
        expr = parse_expression("1 + 2 < 3 * 4")
        assert expr.op == "<"
        assert [arg.op for arg in expr.args] == ["+", "*"]

    def test_and_tighter_than_or(self):
        expr = parse_expression("true or false and true")
        assert expr.op == "or"
        assert expr.args[1].op == "and"

    def test_redundant_parens_normalise_away(self):
        a = parse_expression("((1) + (2 * 3))")
        b = parse_expression("1 + 2 * 3")
        assert a == b
        assert format_expr(a) == "1.0 + 2.0 * 3.0"


class TestFormat:
    @pytest.mark.parametrize("text", [RULE162_SDA, RULE163_PULL_OUT,
                                      DANGER_SPACE_RULES, SIMPLE])
    def test_round_trip_rulepack(self, text):
        doc = parse(text)
        assert parse(format_document(doc)) == doc

    def test_mixed_and_or_round_trip(self):
        src = "true and (false or true) and not (1 < 2)"
        expr = parse_expression(src)
        assert parse_expression(format_expr(expr)) == expr

    def test_right_nested_chain_keeps_parens(self):
        expr = parse_expression("1 - (2 - 3)")
        assert format_expr(expr) == "1.0 - (2.0 - 3.0)"
        assert parse_expression(format_expr(expr)) == expr

    @pytest.mark.parametrize("actor", ["a\\\\", 'say \\"hi\\"', "two\\\nlines",
                                       "\\\\\\\""])
    def test_string_escapes_round_trip(self, actor):
        doc = parse('assertion a { odd: x type: invariant '
                    f'condition: speed_of("{actor}") >= 0 }}')
        assert parse(format_document(doc)) == doc

    @pytest.mark.parametrize("text, column", [
        ("time() > 1e400", 10), ("time() > 1e400s", 10),
        ("1" + "0" * 400 + " > 0", 1)], ids=["number", "duration", "integer"])
    def test_overflowing_number_rejected(self, text, column):
        with pytest.raises(ParseError, match="too large") as err:
            parse("assertion a { odd: x type: invariant "
                  f"condition: {text} }}")
        assert err.value.col == 48 + column

    def test_overflowing_window_rejected(self):
        with pytest.raises(ParseError, match="'1e400' is too large"):
            parse("assertion a { odd: x type: post_temporal window: 1e400s "
                  "reference: true condition: true }")

    def test_durations_canonicalise_to_seconds(self):
        doc = parse('assertion a { odd: x type: pre_temporal window: 1500ms '
                    'reference: true condition: true }')
        text = format_document(doc)
        assert "1.5s" in text
        assert parse(text) == doc


class TestTypecheck:
    def test_distance_comparison_ok(self):
        compile_text('assertion a { odd: x type: invariant '
                     'condition: min_distance(box_of("av"), box_of("vbp")) > 5 }')

    def test_speed_vs_duration_mismatch(self):
        with pytest.raises(TypecheckError, match="unit mismatch"):
            compile_text('assertion a { odd: x type: invariant '
                         'condition: speed_of("av") > 2s }')

    def test_unknown_function_suggests(self):
        with pytest.raises(TypecheckError, match="overlaps"):
            compile_text('assertion a { odd: x type: invariant '
                         'condition: overlapz(box_of("av"), box_of("vbp")) }')

    def test_arity_checked(self):
        with pytest.raises(TypecheckError, match="argument"):
            compile_text('assertion a { odd: x type: invariant '
                         'condition: overlaps(box_of("av")) }')

    def test_condition_must_be_boolean(self):
        with pytest.raises(TypecheckError, match="boolean"):
            compile_text('assertion a { odd: x type: invariant '
                         'condition: speed_of("av") }')

    def test_actor_argument_needs_string(self):
        with pytest.raises(TypecheckError, match="actor"):
            compile_text('assertion a { odd: x type: invariant '
                         'condition: speed_of(5) > 0 }')

    def test_unit_algebra_through_arithmetic(self):
        # m/s * s compared with metres is fine; m/s + m is not
        compile_text('assertion a { odd: x type: invariant '
                     'condition: speed_of("av") * 2s > min_distance('
                     'box_of("av"), box_of("ov")) }')
        with pytest.raises(TypecheckError, match="unit mismatch"):
            compile_text('assertion a { odd: x type: invariant condition: '
                         'speed_of("av") + min_distance(box_of("av"), '
                         'box_of("ov")) > 1 }')

    def test_const_cycle_detected(self):
        text = ('const a = b\nconst b = a\n'
                'assertion x { odd: t type: invariant condition: a > 0 }')
        with pytest.raises(TypecheckError, match="cycle"):
            compile_text(text)

    def test_unresolved_name(self):
        with pytest.raises(TypecheckError, match="unresolved"):
            compile_text('assertion a { odd: x type: invariant '
                         'condition: mystery > 0 }')


class TestCompilationDeterminism:
    def test_format_then_compile_identical(self):
        doc = parse(DANGER_SPACE_RULES)
        direct = typecheck(doc)
        again = compile_text(format_document(doc))
        assert again == direct


class TestNestingLimit:
    """Expressions nest at most dsl.MAX_DEPTH levels, in the text and once
    constants are inlined; deeper input is an error with a location."""

    @pytest.mark.parametrize("text", [
        "(" * 150 + "1" + ")" * 150,
        "not " * 150 + "true",
        " + ".join(["1"] * 150),
        "f(" * 150 + ")" * 150,
    ], ids=["parens", "not", "chain", "calls"])
    def test_within_limit_parses(self, text):
        parse_expression(text)

    @pytest.mark.parametrize("text", [
        "(" * 5000 + "1" + ")" * 5000,
        "not " * 5000 + "true",
        "- " * 5000 + "1",
        " + ".join(["1"] * 2000),
        "f(" * 5000 + ")" * 5000,
    ], ids=["parens", "not", "neg", "chain", "calls"])
    def test_too_deep_is_parse_error(self, text):
        with pytest.raises(ParseError, match="nested deeper than 200") as err:
            parse_expression(text)
        assert err.value.line == 1 and err.value.col >= 1

    def test_too_deep_after_inlining(self):
        chain = " + ".join(["1"] * 150)
        text = (f"const c0 = {chain}\nconst c1 = c0 + {chain}\n"
                "assertion a { odd: x type: invariant condition: c1 > 0 }")
        with pytest.raises(TypecheckError, match="nested deeper than 200"):
            compile_text(text)

    def test_long_alias_chain(self):
        consts = "\n".join(f"const c{i + 1} = c{i}" for i in range(5000))
        text = (f"const c0 = 1\n{consts}\n"
                "assertion a { odd: x type: invariant condition: c5000 > 0 }")
        with pytest.raises(TypecheckError, match="nested deeper than 200"):
            compile_text(text)
