"""Parser, anchor resolution, and serializer tests."""

import numpy as np
import pytest

from seqrig.configlang import (ALIAS, MAPPING, SCALAR, SEQUENCE, ConfigNode,
                               ParseError, deep_equal, infer_atom, iter_nodes,
                               node_at_path, parse_config, resolve_anchors,
                               serialize_config)

from conftest import DECODE_CONFIG, STANDARD_CONFIG, TIED_CONFIG, fill


class TestAtoms:
    def test_inference_is_deterministic(self):
        assert infer_atom("1") == 1 and type(infer_atom("1")) is int
        assert infer_atom("0.3") == 0.3 and type(infer_atom("0.3")) is float
        assert infer_atom("True") is True
        assert infer_atom("true") is True
        assert infer_atom("false") is False
        assert infer_atom("null") is None
        assert infer_atom("~") is None
        assert infer_atom("0.0003") == 0.0003
        assert infer_atom("1e-8") == 1e-8
        assert infer_atom("bleu") == "bleu"

    def test_quoted_forms_stay_strings(self):
        root = parse_config('a: "1"\nb: \'true\'\n')
        assert root.get("a").value == "1"
        assert root.get("b").value == "true"


class TestParse:
    def test_reference_document_structure(self, tmp_path):
        root = parse_config(fill(STANDARD_CONFIG, "d", "o"))
        exp = root.get("mini_experiment")
        assert exp.tag == "Experiment"
        model = exp.get("model")
        assert model.tag == "DefaultTranslator"
        # tagged empty flow mapping ("{} indicates defaults")
        emb = model.get("src_embedder")
        assert emb.kind == MAPPING and emb.tag == "SimpleWordEmbedder"
        assert emb.children == []
        # scalar int under key layers
        layers = model.get("encoder").get("layers")
        assert layers.kind == SCALAR and layers.value == 1 and type(layers.value) is int
        # plain string scalar
        metrics = exp.get("evaluate").children[0].get("eval_metrics")
        assert metrics.value == "bleu"
        # sequence at same indent as its key
        assert exp.get("evaluate").kind == SEQUENCE
        # sequence at deeper indent
        assert exp.get("train").get("dev_tasks").kind == SEQUENCE
        assert exp.get("train").get("dev_tasks").children[0].tag == "LossEvalTask"

    def test_flow_mapping_and_tag(self):
        root = parse_config("v: !Vocab {vocab_file: data/train.vocab}\n")
        node = root.get("v")
        assert node.tag == "Vocab" and node.get("vocab_file").value == "data/train.vocab"

    def test_tags_and_aliases_inside_flow_values(self):
        root = parse_config("a: &n 5\nb: {x: !Thing {y: 2}, z: *n}\n")
        inner = root.get("b").get("x")
        assert inner.tag == "Thing" and inner.get("y").value == 2
        resolved = resolve_anchors(root)
        assert resolved.get("b").get("z").value == 5

    def test_compact_sequence_items(self):
        root = parse_config(fill(DECODE_CONFIG, "d", "o"))
        ow = root.get("decode_exp").get("overwrite")
        assert ow.kind == SEQUENCE and len(ow.children) == 2
        first = ow.children[0]
        assert first.keys() == ["path", "val"]
        assert first.get("path").value == "exp_global.eval_only"
        assert first.get("val").value is True
        second = ow.children[1].get("val")
        assert second.tag == "AccuracyEvalTask"
        assert second.get("hyp_file").value == "o/{EXP}.test_hyp2"

    def test_comments_stripped_but_not_inside_quotes(self):
        root = parse_config('a: 1 # trailing\nb: "x # y"\nc: a#b\n')
        assert root.get("a").value == 1
        assert root.get("b").value == "x # y"
        assert root.get("c").value == "a#b"

    def test_quote_inside_plain_scalar_does_not_hide_a_comment(self):
        assert parse_config("a: it's # note\n").get("a").value == "it's"
        assert parse_config('a: b"c # d"\n').get("a").value == 'b"c'
        assert parse_config("it's: x # it's\n").get("it's").value == "x"

    def test_comment_ends_plain_and_quoted_values_alike(self):
        root = parse_config('a: "x # y" # z\nb: {c: 1} # d\nl:\n- e # f: g\n')
        assert root.get("a").value == "x # y"
        assert root.get("b").kind == MAPPING and root.get("b").get("c").value == 1
        item = root.get("l").children[0]
        assert item.kind == SCALAR and item.value == "e"

    def test_whitespace_run_before_comment_ends_a_key(self):
        for text, loc in (("evaluate:\t # c\n", (1, 10)), ("'evaluate':\t# c\n", (1, 12))):
            node = parse_config(text).get("evaluate")
            assert node.kind == SCALAR and node.value is None and node.loc == loc

    def test_null_or_tag_before_comment_keeps_its_column(self):
        assert parse_config("path: # c\n").get("path").loc == (1, 6)
        ref = parse_config("a: !Ref # c\n  path: x\n").get("a")
        assert ref.tag == "Ref" and ref.loc == (2, 3) and ref.get("path").value == "x"
        assert parse_config("a: !T\t# c\n").get("a").loc == (1, 6)

    def test_document_lines_take_comments(self):
        assert parse_config("a: 1\n--- # c\nb: 2\n").keys() == ["a", "b"]
        assert parse_config("{} # c\n").children == []
        with pytest.raises(ParseError):
            parse_config("a: 1\n---# c\n")

    def test_empty_flow_sequence_token(self):
        root = parse_config("xs: []\n")
        assert root.get("xs").kind == SEQUENCE and root.get("xs").children == []

    def test_multi_document_merge(self):
        root = parse_config("a: 1\n---\nb: 2\n")
        assert root.keys() == ["a", "b"]

    def test_tab_indentation_rejected(self):
        with pytest.raises(ParseError, match="tab"):
            parse_config("a:\n\tb: 1\n")

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ParseError, match="duplicate key 'a'"):
            parse_config("a: 1\na: 2\n")

    def test_inconsistent_indent_rejected(self):
        with pytest.raises(ParseError, match="indent"):
            parse_config("a: 1\n   b: 2\n")

    def test_unterminated_flow_rejected(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_config("a: {x: 1\n")

    def test_flow_key_without_value_rejected(self):
        with pytest.raises(ParseError, match="unterminated flow mapping"):
            parse_config("a: {b:")

    def test_quoted_flow_key_is_unquoted(self):
        root = parse_config('a: {"b c": 1, \'d\': 2}\n')
        assert root.get("a").keys() == ["b c", "d"]
        assert deep_equal(root, parse_config('a:\n  "b c": 1\n  \'d\': 2\n'))

    def test_quoted_key_must_be_one_quoted_string(self):
        for text, loc in (('"a"b: 1\n', (1, 1)), ('x: {"a" b: 1}\n', (1, 5))):
            with pytest.raises(ParseError, match="expected 'key: value'") as err:
                parse_config(text)
            assert err.value.loc == loc

    def test_non_empty_flow_sequence_rejected(self):
        for text, loc in (("a: [1, 2]\n", (1, 4)), ("a: {b: [x]}\n", (1, 8)),
                          ("a:\n  - [1]\n", (2, 5))):
            with pytest.raises(ParseError, match="flow sequence") as err:
                parse_config(text)
            assert err.value.loc == loc
        assert parse_config("a: []\n").get("a").children == []

    def test_empty_document_is_empty_root(self):
        root = parse_config("{}\n")
        assert root.kind == MAPPING and root.children == []
        assert parse_config("a: 1\n---\n{}\n").keys() == ["a"]

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_config("a: 1\na: 2\n")
        assert err.value.loc == (2, 1)

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ParseError, match="mapping"):
            parse_config("- 1\n- 2\n")


class TestAnchors:
    def test_alias_of_scalar(self):
        root = resolve_anchors(parse_config("a: &x 5\nb: *x\n"))
        b = root.get("b")
        assert b.kind == SCALAR and b.value == 5

    def test_experiment_inherits_block(self):
        text = ("exp_a: !Experiment\n"
                "  train: &train_block !SimpleTrainingRegimen\n"
                "    run_for_epochs: 20\n"
                "    src_file: data/train.src\n"
                "exp_b: !Experiment\n"
                "  train: *train_block\n")
        root = resolve_anchors(parse_config(text))
        a_train = root.get("exp_a").get("train")
        b_train = root.get("exp_b").get("train")
        assert b_train is not a_train
        assert deep_equal(a_train, b_train)

    def test_unaliased_anchor_keeps_metadata(self):
        root = parse_config("a: &keep 5\nb: 6\n")
        resolved = resolve_anchors(root)
        assert resolved.get("a").anchor == "keep"
        assert deep_equal(root, resolved)

    def test_alias_before_anchor_rejected(self):
        with pytest.raises(ParseError, match="undefined anchor"):
            resolve_anchors(parse_config("b: *x\na: &x 5\n"))
        with pytest.raises(ParseError) as err:
            resolve_anchors(parse_config("b: *nope\n"))
        assert err.value.loc[0] == 1

    def test_no_alias_nodes_remain(self):
        text = "a: &x\n  k: 1\nb: *x\nc: *x\n"
        resolved = resolve_anchors(parse_config(text))
        assert all(n.kind != ALIAS for n in iter_nodes(resolved))
        assert deep_equal(resolved.get("b"), resolved.get("a"))


def random_tree(rng: np.random.Generator, depth: int = 0) -> ConfigNode:
    tricky_strings = ["plain", "two words", "a/b/c.txt", "{EXP}.log", "1", "true",
                      "null", "x: y", "a #b", "", "-", "- item", "has,comma",
                      "brace}close", 'quo"te', "back\\slash", "*alias", "&anchor",
                      "!tag", "trailing  ", "03"]
    kind = rng.choice(["scalar", "mapping", "sequence"],
                      p=[0.5, 0.3, 0.2] if depth < 3 else [1.0, 0.0, 0.0])
    tag = f"Tag{rng.integers(0, 3)}" if rng.random() < 0.3 else None
    if kind == "scalar":
        choice = rng.integers(0, 5)
        if choice == 0:
            value = int(rng.integers(-1000, 1000))
        elif choice == 1:
            value = float(rng.normal()) * 10 ** int(rng.integers(-8, 8))
        elif choice == 2:
            value = bool(rng.random() < 0.5)
        elif choice == 3:
            value = None
        else:
            value = tricky_strings[rng.integers(0, len(tricky_strings))]
        return ConfigNode.scalar(value, tag=tag)
    if kind == "mapping":
        n = int(rng.integers(0, 4))
        return ConfigNode.mapping([(f"key{i}", random_tree(rng, depth + 1))
                                   for i in range(n)], tag=tag)
    n = int(rng.integers(0, 4))
    return ConfigNode.sequence([random_tree(rng, depth + 1) for i in range(n)], tag=tag)


class TestSerialize:
    def test_reference_documents_round_trip(self):
        for template in (STANDARD_CONFIG, TIED_CONFIG, DECODE_CONFIG):
            text = fill(template, "data", "out")
            tree = parse_config(text)
            again = parse_config(serialize_config(tree))
            assert deep_equal(tree, again)

    def test_empty_mapping_serializes_to_braces(self):
        assert serialize_config(ConfigNode.mapping()) == "{}\n"

    def test_ref_emitted_in_flow_form(self):
        tree = ConfigNode.mapping([
            ("proj", ConfigNode.mapping(
                [("path", ConfigNode.scalar("model.trg_embedder"))], tag="Ref")),
        ])
        text = serialize_config(tree)
        assert "!Ref {path: model.trg_embedder}" in text
        assert deep_equal(parse_config(text), tree)

    def test_randomized_round_trips(self):
        rng = np.random.default_rng(1234)
        for trial in range(60):
            tree = ConfigNode.mapping([(f"top{i}", random_tree(rng))
                                       for i in range(int(rng.integers(1, 4)))])
            text = serialize_config(tree)
            again = parse_config(text)
            assert deep_equal(tree, again), f"trial {trial}:\n{text}"

    def test_alias_serialization_rejected(self):
        tree = parse_config("a: &x 5\nb: *x\n")
        with pytest.raises(ValueError, match="aliases"):
            serialize_config(tree)

    def test_tab_before_hash_is_quoted(self):
        tree = ConfigNode.mapping([("a", ConfigNode.scalar("x\t#y")),
                                   ("b", ConfigNode.scalar("it's")),
                                   ("c\t#d", ConfigNode.scalar('b"c'))])
        text = serialize_config(tree)
        assert text == 'a: "x\t#y"\nb: it\'s\n"c\t#d": b"c\n'
        assert deep_equal(parse_config(text), tree)

    def test_multiline_string_rejected(self):
        tree = ConfigNode.mapping([("a", ConfigNode.scalar("x\ny"))])
        with pytest.raises(ValueError, match="multi-line"):
            serialize_config(tree)

    @pytest.mark.parametrize("key, value", [
        ("k", "a\rb"), ("k\x0bey", "v"), ("k", "a\u2028"),
    ], ids=["value", "key", "trailing"])
    def test_every_splitlines_break_rejected(self, key, value):
        tree = ConfigNode.mapping([(key, ConfigNode.scalar(value))])
        with pytest.raises(ValueError, match="multi-line"):
            serialize_config(tree)


class TestInvariants:
    def test_locations_nondecreasing_in_document_order(self):
        text = fill(STANDARD_CONFIG, "d", "o")
        for tree in (parse_config(text), resolve_anchors(parse_config(
                "a: &x\n  k: 1\nb: *x\n"))):
            locs = [n.loc for n in iter_nodes(tree) if n.loc != (0, 0)]
            assert locs == sorted(locs)

    def test_parse_is_deterministic(self):
        text = fill(STANDARD_CONFIG, "d", "o")
        assert deep_equal(parse_config(text), parse_config(text))

    def test_node_at_path(self):
        root = parse_config("a:\n  b:\n    - x\n    - y\n")
        assert node_at_path(root, "a.b.1").value == "y"
        assert node_at_path(root, "a.b.2") is None
        assert node_at_path(root, "a.missing") is None
        assert node_at_path(root, "") is root
