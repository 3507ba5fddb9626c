"""Tests for the YAML-subset parser and emitter."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import yamlite
from repro.yamlite import YamlError
from repro.yamlite.parser import parse_scalar


class TestScalars:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("42", 42),
            ("-7", -7),
            ("3.14", 3.14),
            ("1e3", "1e3"),  # bare exponents stay strings (K8s quantity style)
            ("1.5e3", 1500.0),
            ("true", True),
            ("false", False),
            ("null", None),
            ("~", None),
            ("hello", "hello"),
            ("nginx:1.23.2", "nginx:1.23.2"),
        ],
    )
    def test_plain_scalars(self, text, expected):
        assert parse_scalar(text) == expected

    def test_quoted_strings_preserved(self):
        assert yamlite.load('key: "42"') == {"key": "42"}
        assert yamlite.load("key: 'true'") == {"key": "true"}

    def test_double_quote_escapes(self):
        assert yamlite.load(r'key: "a\nb"') == {"key": "a\nb"}
        assert yamlite.load(r'key: "say \"hi\""') == {"key": 'say "hi"'}

    def test_single_quote_doubling(self):
        assert yamlite.load("key: 'it''s'") == {"key": "it's"}


class TestMappings:
    def test_flat_mapping(self):
        doc = yamlite.load("a: 1\nb: two\nc: 3.5\n")
        assert doc == {"a": 1, "b": "two", "c": 3.5}

    def test_nested_mapping(self):
        text = """
metadata:
  name: web
  labels:
    app: web
    tier: frontend
"""
        assert yamlite.load(text) == {
            "metadata": {"name": "web", "labels": {"app": "web", "tier": "frontend"}}
        }

    def test_empty_value_is_none(self):
        assert yamlite.load("key:\n") == {"key": None}

    def test_duplicate_key_rejected(self):
        with pytest.raises(YamlError, match="duplicate"):
            yamlite.load("a: 1\na: 2\n")

    def test_comments_ignored(self):
        text = "# heading\na: 1  # trailing\n\nb: 2\n"
        assert yamlite.load(text) == {"a": 1, "b": 2}

    def test_hash_inside_quotes_kept(self):
        assert yamlite.load('key: "a#b"') == {"key": "a#b"}

    def test_tab_indentation_rejected(self):
        with pytest.raises(YamlError, match="tab"):
            yamlite.load("a:\n\tb: 1\n")


class TestSequences:
    def test_scalar_sequence(self):
        assert yamlite.load("- 1\n- 2\n- 3\n") == [1, 2, 3]

    def test_sequence_under_key(self):
        text = "ports:\n- 80\n- 443\n"
        assert yamlite.load(text) == {"ports": [80, 443]}

    def test_indented_sequence_under_key(self):
        text = "ports:\n  - 80\n  - 443\n"
        assert yamlite.load(text) == {"ports": [80, 443]}

    def test_sequence_of_mappings(self):
        text = """
containers:
- name: nginx
  image: nginx:1.23.2
  ports:
  - containerPort: 80
- name: sidecar
  image: env-writer-py
"""
        assert yamlite.load(text) == {
            "containers": [
                {
                    "name": "nginx",
                    "image": "nginx:1.23.2",
                    "ports": [{"containerPort": 80}],
                },
                {"name": "sidecar", "image": "env-writer-py"},
            ]
        }

    def test_nested_sequences(self):
        text = "matrix:\n- - 1\n  - 2\n- - 3\n  - 4\n"
        assert yamlite.load(text) == {"matrix": [[1, 2], [3, 4]]}


class TestFlowStyle:
    def test_flow_list(self):
        assert yamlite.load("args: [a, b, c]\n") == {"args": ["a", "b", "c"]}

    def test_flow_list_mixed_types(self):
        assert yamlite.load("xs: [1, 2.5, true, null, s]\n") == {
            "xs": [1, 2.5, True, None, "s"]
        }

    def test_empty_flow_list(self):
        assert yamlite.load("xs: []\n") == {"xs": []}

    def test_flow_mapping(self):
        assert yamlite.load("sel: {app: web, tier: front}\n") == {
            "sel": {"app": "web", "tier": "front"}
        }

    def test_nested_flow(self):
        assert yamlite.load("x: [{a: 1}, {b: [2, 3]}]\n") == {
            "x": [{"a": 1}, {"b": [2, 3]}]
        }

    def test_unbalanced_flow_rejected(self):
        with pytest.raises(YamlError):
            yamlite.load("x: [1, 2\n")


class TestLiteralBlock:
    def test_literal_block(self):
        text = "script: |\n  line one\n  line two\n"
        assert yamlite.load(text) == {"script": "line one\nline two\n"}

    def test_literal_block_preserves_inner_indent(self):
        text = "script: |\n  if x:\n    y\n"
        assert yamlite.load(text) == {"script": "if x:\n  y\n"}


class TestDocuments:
    def test_multi_document(self):
        docs = yamlite.load_all("a: 1\n---\nb: 2\n")
        assert docs == [{"a": 1}, {"b": 2}]

    def test_load_rejects_multi_document(self):
        with pytest.raises(YamlError, match="single document"):
            yamlite.load("a: 1\n---\nb: 2\n")

    def test_empty_stream(self):
        assert yamlite.load("") is None
        assert yamlite.load_all("") == []

    def test_leading_separator_ignored(self):
        assert yamlite.load_all("---\na: 1\n") == [{"a": 1}]


class TestKubernetesManifest:
    """The format the paper's controller actually consumes."""

    MANIFEST = """
apiVersion: apps/v1
kind: Deployment
metadata:
  name: nginx-deployment
  labels:
    app: nginx
spec:
  replicas: 0
  selector:
    matchLabels:
      app: nginx
  template:
    metadata:
      labels:
        app: nginx
    spec:
      containers:
      - name: nginx
        image: nginx:1.23.2
        ports:
        - containerPort: 80
        env:
        - name: MODE
          value: "edge"
        volumeMounts:
        - name: content
          mountPath: /usr/share/nginx/html
      volumes:
      - name: content
        hostPath:
          path: /srv/edge/content
"""

    def test_parses_deployment(self):
        doc = yamlite.load(self.MANIFEST)
        assert doc["kind"] == "Deployment"
        assert doc["spec"]["replicas"] == 0
        spec = doc["spec"]["template"]["spec"]
        assert spec["containers"][0]["image"] == "nginx:1.23.2"
        assert spec["containers"][0]["ports"] == [{"containerPort": 80}]
        assert spec["containers"][0]["env"] == [{"name": "MODE", "value": "edge"}]
        assert spec["volumes"][0]["hostPath"]["path"] == "/srv/edge/content"

    def test_round_trip(self):
        doc = yamlite.load(self.MANIFEST)
        assert yamlite.load(yamlite.dump(doc)) == doc


class TestEmitter:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            -1.5,
            "plain",
            "needs quoting: yes",
            {"a": 1},
            {"a": {"b": {"c": [1, 2, {"d": None}]}}},
            [],
            {},
            {"empty_list": [], "empty_map": {}},
            [1, [2, [3]]],
            {"text": "line1\nline2"},
            {"numstring": "007", "boolstring": "true"},
        ],
    )
    def test_round_trip(self, value):
        assert yamlite.load(yamlite.dump(value)) == value


# -- property-based round trip ------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" _-./"
        ),
        max_size=20,
    ),
)

_keys = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters="_-"),
    min_size=1,
    max_size=12,
)

_trees = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(_trees)
@example(tree="...")  # a bare document-end marker, read back as no document
@example(tree={"a": "..."})
def test_dump_load_round_trip_property(tree):
    assert yamlite.load(yamlite.dump(tree)) == tree
