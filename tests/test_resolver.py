"""Registry, defaults, references, instantiation, dumping, overwrites."""

import numpy as np
import pytest

from seqrig.components import default_registry
from seqrig.configlang import ConfigNode, deep_equal, parse_config, serialize_config
from seqrig.experiment import ExpGlobal
from seqrig.resolver import (Arg, ComponentSchema, Overwrite, Registry,
                             ResolveError, apply_overwrites, dump_spec,
                             fill_defaults, instantiate_graph, is_component,
                             parse_overwrites, resolve_references,
                             substitute_placeholders)

from conftest import STANDARD_CONFIG, TIED_CONFIG, fill


def std_tree(copy_data, out):
    return parse_config(fill(STANDARD_CONFIG, copy_data, out)).get("mini_experiment")


class TestRegistry:
    def test_builtin_tags_cover_the_reference_documents(self):
        reg = default_registry()
        for tag in ["ExpGlobal", "DefaultTranslator", "PlainTextReader", "Vocab",
                    "SimpleWordEmbedder", "BiLSTMSeqTransducer", "MlpAttender",
                    "MlpSoftmaxDecoder", "CopyBridge", "SimpleTrainingRegimen",
                    "SrcBatcher", "LossEvalTask", "AccuracyEvalTask",
                    "DenseWordEmbedder", "Ref", "Experiment"]:
            assert reg.get(tag) is not None, tag

    def test_registering_twice_fails(self):
        reg = Registry()
        schema = ComponentSchema("Thing", [Arg("x", 1)], lambda ctx, x: x)
        reg.register(schema)
        with pytest.raises(ResolveError, match="already registered"):
            reg.register(schema)

    def test_new_registration_is_resolvable(self):
        reg = Registry()
        reg.register(ComponentSchema("Thing", [Arg("x", 1)], lambda ctx, x: x))
        assert reg.get("Thing").tag_name == "Thing"

    def test_use_global_keys_must_exist_in_exp_global(self):
        from seqrig.components import _check_use_global_keys
        from seqrig.resolver import UseGlobal
        reg = Registry()
        reg.register(ComponentSchema("Thing", [Arg("x", UseGlobal("no_such_field"))],
                                     lambda ctx, x: x))
        with pytest.raises(ResolveError, match="no_such_field"):
            _check_use_global_keys(reg)
        assert _check_use_global_keys(default_registry()) is not None

    def test_duplicate_schema_argument_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ComponentSchema("Thing", [Arg("x", 1), Arg("x", 2)], lambda ctx, x: x)


class TestPlaceholders:
    def test_model_file_template(self):
        tree = parse_config("f: examples/output/{EXP}.mod\n")
        out = substitute_placeholders(tree, "mini_experiment")
        assert out.get("f").value == "examples/output/mini_experiment.mod"

    def test_untouched_without_placeholder(self):
        tree = parse_config("f: plain\nn: 3\n")
        out = substitute_placeholders(tree, "x")
        assert out.get("f").value == "plain" and out.get("n").value == 3

    def test_two_placeholders_in_one_string(self):
        tree = parse_config("f: '{EXP}/{EXP}.log'\n")
        assert substitute_placeholders(tree, "e").get("f").value == "e/e.log"

    def test_idempotent_when_name_has_no_placeholder(self):
        tree = parse_config("f: a/{EXP}.mod\n")
        once = substitute_placeholders(tree, "run1")
        twice = substitute_placeholders(once, "run1")
        assert deep_equal(once, twice)


class TestFillDefaults:
    def schema(self):
        return default_registry().get("SimpleWordEmbedder")

    def test_explicit_argument_wins(self):
        node = parse_config("e: !SimpleWordEmbedder {emb_dim: 128}\n").get("e")
        args = fill_defaults(node, self.schema(), ExpGlobal(default_layer_dim=512))
        assert args["emb_dim"].value == 128

    def test_use_global_default(self):
        node = parse_config("e: !SimpleWordEmbedder {}\n").get("e")
        args = fill_defaults(node, self.schema(), ExpGlobal(default_layer_dim=512))
        assert args["emb_dim"] == 512

    def test_unknown_argument_reports_location(self):
        node = parse_config("e: !BiLSTMSeqTransducer\n  layrs: 1\n").get("e")
        with pytest.raises(ResolveError, match="layrs") as err:
            fill_defaults(node, default_registry().get("BiLSTMSeqTransducer"),
                          ExpGlobal())
        assert err.value.loc == (2, 3)

    def test_missing_required_argument_names_it(self):
        node = parse_config("v: !Vocab {}\n").get("v")
        with pytest.raises(ResolveError, match="vocab_file"):
            fill_defaults(node, default_registry().get("Vocab"), ExpGlobal())


class TestResolveReferences:
    def test_no_refs_schedule_is_topological(self, copy_data, tmp_path):
        tree = std_tree(copy_data, tmp_path)
        plan = resolve_references(tree)
        assert plan.aliases == set()
        seen = set()
        for path in plan.schedule:
            parent = path.rsplit(".", 1)[0] if "." in path else ""
            if path:
                assert parent not in seen  # children strictly before parents
            seen.add(path)
        assert plan.schedule[-1] == ""

    def test_ref_contributes_alias_edge(self, copy_data):
        tree = parse_config(fill(TIED_CONFIG, copy_data, "o")).get("tied_exp")
        plan = resolve_references(tree)
        assert ("model.decoder.vocab_projector", "model.trg_embedder") in plan.aliases
        order = plan.schedule
        assert order.index("model.trg_embedder") < order.index("model.decoder.vocab_projector")

    def test_dangling_path_cites_it(self):
        tree = parse_config("r: !Ref {path: model.nonexistent}\nmodel: {}\n")
        with pytest.raises(ResolveError, match="model.nonexistent"):
            resolve_references(tree)

    def test_cycle_lists_the_cycle(self):
        text = ("a: !Ref {path: b}\n"
                "b: !Ref {path: a}\n")
        with pytest.raises(ResolveError, match="cycle.*a.*b|cycle.*b.*a"):
            resolve_references(parse_config(text))

    def test_ref_without_path_rejected(self):
        tree = parse_config("a: !Ref {}\nb: 1\n")
        with pytest.raises(ResolveError, match="path"):
            resolve_references(tree)

    @pytest.mark.parametrize("text, path, loc", [
        ("a.b: 1\na:\n  b: 2\n", "a.b", (3, 3)),
        ("a:\n  b: 2\na.b: 1\n", "a.b", (3, 1)),
        ("a.0: 1\na:\n  - 2\n", "a.0", (3, 5)),
    ], ids=["dotted-first", "nested-first", "sequence-index"])
    def test_dotted_key_colliding_with_a_nested_path_rejected(self, text, path, loc):
        # both nodes would be named by one path, and the later one would win
        with pytest.raises(ResolveError, match="already taken") as err:
            resolve_references(parse_config(text))
        assert err.value.path == path and err.value.loc == loc


class TestInstantiate:
    def test_reference_document_defaults(self, copy_data, tmp_path):
        exp = instantiate_graph(std_tree(copy_data, tmp_path), default_registry(),
                                "mini_experiment")
        graph = exp.graph
        assert graph.nodes["model.src_embedder"].emb_dim == 512
        assert graph.nodes["model.trg_embedder"].emb_dim == 128
        encoder = graph.nodes["model.encoder"]
        assert encoder.layers == 1 and encoder.hidden_dim == 512
        assert type(graph.nodes["model.decoder"].bridge).__name__ == "CopyBridge"
        assert exp.exp_global.dropout == 0.3
        assert encoder.dropout == 0.3  # use-global dropout opt-in
        assert exp.exp_global.model_file.endswith("mini_experiment.mod")

    def test_shared_instance_is_observable_through_both_paths(self, copy_data):
        tree = parse_config(fill(TIED_CONFIG, copy_data, "o")).get("tied_exp")
        exp = instantiate_graph(tree, default_registry(), "tied_exp")
        embedder = exp.graph.nodes["model.trg_embedder"]
        projector = exp.graph.nodes["model.decoder"].vocab_projector
        assert projector is embedder
        embedder.table.value[0, 0] = 42.0
        assert projector.table.value[0, 0] == 42.0

    def test_tied_parameter_count_drops_by_v_times_d(self, copy_data):
        tied_text = fill(TIED_CONFIG, copy_data, "o")
        untied_text = (tied_text
                       .replace("    decoder: !MlpSoftmaxDecoder\n      layers: 1\n"
                                "      bridge: !CopyBridge {}\n"
                                "      vocab_projector: !Ref { path: model.trg_embedder }\n",
                                "    decoder: !MlpSoftmaxDecoder\n      layers: 1\n"
                                "      mlp_hidden_dim: 128\n"
                                "      bridge: !CopyBridge {}\n")
                       .replace("!DenseWordEmbedder", "!SimpleWordEmbedder"))
        reg = default_registry()
        tied = instantiate_graph(parse_config(tied_text).get("tied_exp"), reg, "t")
        untied = instantiate_graph(parse_config(untied_text).get("tied_exp"), reg, "u")
        v, d = 10, 128  # vocab file has 7 content tokens + 3 reserved
        delta = untied.runtime.params.total_size() - tied.runtime.params.total_size()
        assert delta == v * d

    def test_unregistered_tag_reports_location(self, copy_data, tmp_path):
        text = fill(STANDARD_CONFIG, copy_data, tmp_path).replace(
            "!BiLSTMSeqTransducer", "!FooEncoder")
        with pytest.raises(ResolveError, match="unregistered tag FooEncoder") as err:
            instantiate_graph(parse_config(text).get("mini_experiment"),
                              default_registry(), "mini_experiment")
        assert err.value.loc is not None and err.value.path == "model.encoder"

    def test_seed_override_beats_config_seed(self, copy_data, tmp_path):
        tree = std_tree(copy_data, tmp_path)
        a = instantiate_graph(tree, default_registry(), "e", seed_override=None)
        b = instantiate_graph(tree, default_registry(), "e", seed_override=99)
        assert a.runtime.seed == 0 and b.runtime.seed == 99

    def test_same_seed_gives_identical_parameters(self, copy_data, tmp_path):
        tree = std_tree(copy_data, tmp_path)
        a = instantiate_graph(tree, default_registry(), "e")
        b = instantiate_graph(tree, default_registry(), "e")
        for pa, pb in zip(a.runtime.params, b.runtime.params):
            assert pa.name == pb.name
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_absent_exp_global_is_built_with_defaults(self):
        tree = parse_config("e: !Experiment {model: null}\n").get("e")
        exp = instantiate_graph(tree, default_registry(), "e")
        assert exp.graph.nodes["exp_global"] is exp.exp_global
        assert exp.exp_global == ExpGlobal()
        assert "exp_global" not in tree.keys()  # the caller's tree is not touched
        assert serialize_config(dump_spec(exp)) == (
            'exp_global: !ExpGlobal\n  model_file: ""\n  log_file: ""\n'
            "  default_layer_dim: 512\n  dropout: 0.0\n  eval_only: false\n  seed: 0\n"
            "model: null\ntrain: null\nevaluate: null\n")

    def test_root_must_be_experiment(self):
        with pytest.raises(ResolveError, match="Experiment"):
            instantiate_graph(parse_config("a: 1\n"), default_registry(), "e")

    def test_unresolved_alias_rejected(self):
        tree = parse_config("e: !Experiment\n  a: &x 1\n  b: *x\n").get("e")
        with pytest.raises(ResolveError, match="alias"):
            instantiate_graph(tree, default_registry(), "e")

    @pytest.mark.parametrize("field", ["max_len: 0", "sample_n: 0"])
    def test_decode_limit_below_one_reports_location(self, copy_data, tmp_path, field):
        text = fill(STANDARD_CONFIG, copy_data, tmp_path).replace(
            "default_layer_dim: 512", "default_layer_dim: 8").replace(
            "emb_dim: 128", "emb_dim: 8").replace(
            "    eval_metrics: bleu\n", f"    eval_metrics: bleu\n    {field}\n")
        name = field.split(":")[0]
        with pytest.raises(ResolveError, match=f"{name} must be >= 1") as err:
            instantiate_graph(parse_config(text).get("mini_experiment"),
                              default_registry(), "mini_experiment")
        assert err.value.path == "evaluate.0" and err.value.loc is not None

    def test_ref_interface_violation_fails_at_construction(self, copy_data):
        # duck typing: pointing the projector Ref at the encoder only fails
        # when the decoder is constructed, not at parse/plan time
        text = fill(TIED_CONFIG, copy_data, "o").replace(
            "vocab_projector: !Ref { path: model.trg_embedder }",
            "vocab_projector: !Ref { path: model.encoder }")
        tree = parse_config(text).get("tied_exp")
        resolve_references(tree)  # the plan itself is fine
        with pytest.raises(ResolveError, match="failed to construct"):
            instantiate_graph(tree, default_registry(), "tied_exp")


def architecture_signature(exp):
    """Comparable (tag, scalar args) map plus unordered alias pairs."""
    sig = {}
    for path, node in exp.graph.nodes.items():
        if is_component(node):
            scalars = {k: v for k, v in node._cfg_args.items()
                       if isinstance(v, (int, float, str, bool, type(None)))}
            sig[path] = (node._cfg_tag, tuple(sorted(scalars.items(),
                                                     key=lambda kv: kv[0])))
    return sig, exp.graph.shared_pairs(), exp.runtime.params.total_size()


class TestDumpSpec:
    def test_defaults_are_materialized(self, copy_data, tmp_path):
        exp = instantiate_graph(std_tree(copy_data, tmp_path), default_registry(),
                                "mini_experiment")
        dumped = dump_spec(exp)
        schema_args = fill_defaults(std_tree(copy_data, tmp_path).get("model")
                                    .get("src_embedder"),
                                    default_registry().get("SimpleWordEmbedder"),
                                    exp.exp_global)
        assert dumped.get("model").get("src_embedder").get("emb_dim").value == 512
        assert schema_args["emb_dim"] == 512  # oracle: fill_defaults output
        assert dumped.get("exp_global").get("seed").value == 0

    def test_dump_preserves_ref_instead_of_duplicating(self, copy_data):
        tree = parse_config(fill(TIED_CONFIG, copy_data, "o")).get("tied_exp")
        exp = instantiate_graph(tree, default_registry(), "tied_exp")
        dumped = dump_spec(exp)
        proj = dumped.get("model").get("decoder").get("vocab_projector")
        assert proj.tag == "Ref" and proj.get("path").value == "model.trg_embedder"

    def test_reinstantiated_dump_matches_architecture(self, copy_data, tmp_path):
        for template in (STANDARD_CONFIG, TIED_CONFIG):
            name = "mini_experiment" if template is STANDARD_CONFIG else "tied_exp"
            tree = parse_config(fill(template, copy_data, tmp_path)).get(name)
            exp = instantiate_graph(tree, default_registry(), name)
            doc = ConfigNode.mapping([(name, dump_spec(exp))])
            text = serialize_config(doc)
            again = instantiate_graph(parse_config(text).get(name),
                                      default_registry(), name)
            assert architecture_signature(again) == architecture_signature(exp)

    def test_dump_round_trips_through_serializer(self, copy_data, tmp_path):
        exp = instantiate_graph(std_tree(copy_data, tmp_path), default_registry(),
                                "mini_experiment")
        doc = ConfigNode.mapping([("mini_experiment", dump_spec(exp))])
        assert deep_equal(parse_config(serialize_config(doc)), doc)


class TestOverwrites:
    def test_reference_workflow_block(self):
        ow_node = parse_config(
            "o:\n"
            " - path: exp_global.eval_only\n"
            "   val: True\n"
            " - path: evaluate\n"
            "   val: !AccuracyEvalTask {src_file: a, ref_file: b}\n").get("o")
        overwrites = parse_overwrites(ow_node)
        base = parse_config(
            "exp_global: !ExpGlobal\n  eval_only: false\nevaluate: null\n")
        out = apply_overwrites(base, overwrites)
        assert out.get("exp_global").get("eval_only").value is True
        assert out.get("evaluate").tag == "AccuracyEvalTask"

    def test_non_string_path_rejected_with_location(self):
        ow_node = parse_config("o:\n  - path: 5\n    val: 1\n").get("o")
        with pytest.raises(ResolveError, match="string 'path'") as err:
            parse_overwrites(ow_node)
        assert err.value.loc == (2, 11)

    def test_empty_overwrite_list_is_identity(self):
        base = parse_config("a: 1\nb:\n  c: 2\n")
        assert deep_equal(apply_overwrites(base, []), base)

    def test_inserting_a_new_child(self):
        base = parse_config("a:\n  x: 1\n")
        out = apply_overwrites(base, [Overwrite("a.y", ConfigNode.scalar(5))])
        assert out.get("a").get("y").value == 5

    def test_zero_epochs_overwrite_is_valid(self, copy_data, tmp_path):
        tree = std_tree(copy_data, tmp_path)
        out = apply_overwrites(tree, [Overwrite("train.run_for_epochs",
                                                ConfigNode.scalar(0))])
        exp = instantiate_graph(out, default_registry(), "mini")
        assert exp.train.run_for_epochs == 0

    def test_sequence_index_navigation(self):
        base = parse_config("xs:\n  - 1\n  - 2\n")
        out = apply_overwrites(base, [Overwrite("xs.1", ConfigNode.scalar(9))])
        assert [c.value for c in out.get("xs").children] == [1, 9]

    def test_bad_prefix_rejected(self):
        base = parse_config("a: 1\n")
        with pytest.raises(ResolveError, match="does not address"):
            apply_overwrites(base, [Overwrite("a.b.c", ConfigNode.scalar(1))])

    @pytest.mark.parametrize("path, message", [
        ("model.nonexistent.x", "does not address"),
        ("xs.5", "out of range"),
        ("", "empty segment"),
        ("model..dim", "empty segment"),
        ("model.", "empty segment"),
    ])
    def test_overwrite_errors_name_the_item_location(self, path, message):
        base = parse_config("model:\n  dim: 4\nxs:\n  - 1\n")
        overwrites = parse_overwrites(parse_config(
            f"o:\n  - path: exp_global\n    val: 1\n  - path: '{path}'\n    val: 2\n").get("o"))
        with pytest.raises(ResolveError, match=message) as err:
            apply_overwrites(base, overwrites)
        assert err.value.loc == (4, 5)
        assert "(line 4, col 5)" in str(err.value)

    def test_original_tree_is_not_mutated(self):
        base = parse_config("a: 1\n")
        apply_overwrites(base, [Overwrite("a", ConfigNode.scalar(2))])
        assert base.get("a").value == 1
