import re

import numpy as np
import pytest

from co2fuse.errors import FeatureOrderError, ModelFormatError
from co2fuse.models import (
    CatBoostConfig,
    GbtConfig,
    MlpConfig,
    MlpModel,
    load,
    predict_batch,
    save,
    train_baseline,
    train_catboost,
    train_gbt,
    train_mlp,
)
from co2fuse.models.mlp import NormStats

rng = np.random.default_rng(12)
X_TRAIN = rng.normal(415, 5, size=(150, 14))
Y_TRAIN = X_TRAIN[:, 0] * 0.8 + rng.normal(0, 1, 150) + 80


def _all_models():
    return [
        train_baseline(X_TRAIN, Y_TRAIN),
        train_gbt(X_TRAIN, Y_TRAIN, GbtConfig(n_estimators=8)),
        train_catboost(X_TRAIN, Y_TRAIN, CatBoostConfig(iterations=4)),
        train_mlp(X_TRAIN, Y_TRAIN, MlpConfig(epochs=3)),
    ]


@pytest.mark.parametrize("model", _all_models(), ids=lambda model: model.kind)
def test_round_trip_predicts_bit_identically(model, tmp_path):
    path = tmp_path / f"{model.kind}.model"
    save(model, path)
    back = load(path)
    assert type(back) is type(model)
    assert back.kind == model.kind
    queries = np.random.default_rng(99).normal(415, 5, size=(100, 14))
    assert np.array_equal(predict_batch(model, queries), predict_batch(back, queries))


def test_truncated_file_rejected(tmp_path):
    model = train_gbt(X_TRAIN, Y_TRAIN, GbtConfig(n_estimators=8))
    path = tmp_path / "m.model"
    save(model, path)
    content = path.read_text()
    (tmp_path / "trunc.model").write_text(content[: len(content) // 2])
    with pytest.raises(ModelFormatError):
        load(tmp_path / "trunc.model")


def test_unknown_version_named_in_error(tmp_path):
    path = tmp_path / "v99.model"
    path.write_text("CO2FUSE-MODEL v99 baseline\nfeatures a b\n")
    with pytest.raises(ModelFormatError, match="v99"):
        load(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("something else entirely\n")
    with pytest.raises(ModelFormatError):
        load(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "kind.model"
    path.write_text("CO2FUSE-MODEL v1 forest\nfeatures a\n")
    with pytest.raises(ModelFormatError):
        load(path)


@pytest.mark.parametrize("edit", [
    lambda names: ["xco2_scrambled", *names[1:]],
    lambda names: names[::-1],
    lambda names: names[:-1],
    lambda names: names + ["extra"],
], ids=["renamed", "reversed", "short", "long"])
def test_non_canonical_feature_order_rejected_at_load(tmp_path, edit):
    lines = _saved(tmp_path, train_baseline(X_TRAIN, Y_TRAIN)).splitlines()
    lines[1] = " ".join(["features", *edit(lines[1].split()[1:])])
    with pytest.raises(FeatureOrderError, match="expected the canonical order"):
        _load_text(tmp_path, "\n".join(lines) + "\n")


def test_wrong_feature_count_rejected_at_predict():
    model = train_baseline(X_TRAIN, Y_TRAIN)
    with pytest.raises(FeatureOrderError):
        predict_batch(model, np.zeros((3, 9)))


def test_linear_predict_value():
    from co2fuse.models import LinearModel

    model = LinearModel(slope=1.0, intercept=0.0)
    v = np.zeros(14)
    v[0] = 410.0
    assert predict_batch(model, v[None, :])[0] == 410.0


def test_same_seed_gives_byte_identical_files(tmp_path):
    for i, make in enumerate(
        [
            lambda: train_gbt(X_TRAIN, Y_TRAIN, GbtConfig(n_estimators=6)),
            lambda: train_mlp(X_TRAIN, Y_TRAIN, MlpConfig(epochs=3, seed=4)),
            lambda: train_catboost(X_TRAIN, Y_TRAIN, CatBoostConfig(iterations=3)),
        ]
    ):
        p1 = tmp_path / f"a{i}.model"
        p2 = tmp_path / f"b{i}.model"
        save(make(), p1)
        save(make(), p2)
        assert p1.read_bytes() == p2.read_bytes()


def _saved(tmp_path, model) -> str:
    path = tmp_path / "good.model"
    save(model, path)
    return path.read_text()


def _load_text(tmp_path, text):
    path = tmp_path / "edited.model"
    path.write_text(text)
    return load(path)


def test_trailing_line_after_payload_rejected(tmp_path):
    model = train_gbt(X_TRAIN, Y_TRAIN, GbtConfig(n_estimators=3))
    with pytest.raises(ModelFormatError, match="after the payload"):
        _load_text(tmp_path, _saved(tmp_path, model) + "garbage\n")


# a one-word line that holds no word or a word too many, and a negative count
BAD_WORDS = [
    ("{tag}", "'{tag}' line holds 0 words, expected 1"),
    ("{tag} 2 junk", "'{tag}' line holds 2 words, expected 1"),
]
BAD_COUNTS = [("{tag} -3", "negative {tag}"), *BAD_WORDS]


def _assert_line_rejected(tmp_path, lines, at, tag, cases):
    """Each (line, message) case put in place of lines[at] fails to load
    with that message at that file line."""
    for line, message in cases:
        edited = lines[:at] + [line.format(tag=tag)] + lines[at + 1:]
        with pytest.raises(ModelFormatError, match=f":{at + 1}: " + message.format(tag=tag)):
            _load_text(tmp_path, "\n".join(edited) + "\n")


def test_negative_tree_count_rejected(tmp_path):
    model = train_gbt(X_TRAIN, Y_TRAIN, GbtConfig(n_estimators=3))
    # without its trees, so that no trailing line is left to reject
    lines = _saved(tmp_path, model).splitlines()[:-3]
    assert lines[-1] == "n_trees 3"
    _assert_line_rejected(tmp_path, lines, len(lines) - 1, "n_trees", BAD_COUNTS)


@pytest.mark.parametrize("tag", ["classes", "iterations", "decode"])
def test_negative_catboost_counts_rejected(tmp_path, tag):
    model = train_catboost(X_TRAIN, Y_TRAIN, CatBoostConfig(iterations=2))
    lines = _saved(tmp_path, model).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(tag + " "))
    cases = BAD_WORDS if tag == "decode" else BAD_COUNTS
    if tag == "classes":  # a catboost model bins into 2 classes at the fewest
        cases = cases + [("{tag} 0", "classes 0 is below 2"), ("{tag} 1", "classes 1 is below 2")]
    _assert_line_rejected(tmp_path, lines, at, tag, cases)


@pytest.mark.parametrize("feature", [99, 14, -1])
def test_split_feature_outside_canonical_list_rejected(tmp_path, feature):
    model = train_gbt(X_TRAIN, Y_TRAIN, GbtConfig(n_estimators=1))
    lines = _saved(tmp_path, model).splitlines()
    lines[-1] = f"(split 0 415 (leaf 1) (split {feature} 0.5 (leaf 1) (leaf 2)))"
    with pytest.raises(ModelFormatError, match=f"feature {feature}, outside 0..13"):
        _load_text(tmp_path, "\n".join(lines) + "\n")


def test_deeply_nested_tree_loads(tmp_path):
    model = train_gbt(X_TRAIN, Y_TRAIN, GbtConfig(n_estimators=1))
    lines = _saved(tmp_path, model).splitlines()
    lines[-1] = "(split 0 415 " * 3000 + "(leaf -1)" + " (leaf 1))" * 3000
    back = _load_text(tmp_path, "\n".join(lines) + "\n")
    v = np.full(14, 415.0)
    assert predict_batch(back, v[None, :])[0] == back.base_score + back.learning_rate


def _first_leaf(text, bad):
    return re.sub(r"\(leaf \S+\)", f"(leaf {bad})", text, count=1)


def _first_threshold(text, bad):
    return re.sub(r"\(split (\d+) \S+", rf"(split \g<1> {bad}", text, count=1)


def _first_weight(text, bad):
    return re.sub(r"(\nW \d+ \d+\n)\S+", rf"\g<1>{bad}", text, count=1)


def _first_value(tag):
    """An edit that replaces the first number after ``tag`` (a regex)."""
    return lambda text, bad: re.sub(rf"(\n{tag} )\S+", rf"\g<1>{bad}", text, count=1)


def _trained_mlp():
    return train_mlp(X_TRAIN, Y_TRAIN, MlpConfig(epochs=1))


_NON_FINITE_EDITS = {
    "gbt-leaf": (lambda: train_gbt(X_TRAIN, Y_TRAIN, GbtConfig(n_estimators=2)), _first_leaf),
    "gbt-threshold": (
        lambda: train_gbt(X_TRAIN, Y_TRAIN, GbtConfig(n_estimators=2)), _first_threshold
    ),
    "mlp-weight": (_trained_mlp, _first_weight),
    "catboost-leaf": (
        lambda: train_catboost(X_TRAIN, Y_TRAIN, CatBoostConfig(iterations=1)), _first_leaf
    ),
    "baseline-slope": (lambda: train_baseline(X_TRAIN, Y_TRAIN), _first_value("slope")),
    "normstats-mean": (_trained_mlp, _first_value("normstats-mean")),
    "catboost-edges": (
        lambda: train_catboost(X_TRAIN, Y_TRAIN, CatBoostConfig(iterations=1)),
        _first_value("edges"),
    ),
    "mlp-bias": (_trained_mlp, _first_value(r"b \d+")),
}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("target", sorted(_NON_FINITE_EDITS))
def test_non_finite_model_float_rejected(tmp_path, target, bad):
    train, edit = _NON_FINITE_EDITS[target]
    text = _saved(tmp_path, train())
    edited = edit(text, bad)
    assert edited != text
    with pytest.raises(ModelFormatError, match="non-finite"):
        _load_text(tmp_path, edited)


def _widened_mlp(part):
    """A trained MLP with 13 inputs, 2 outputs or 13-wide normstats, each
    file otherwise consistent."""
    model = _trained_mlp()
    stats = model.norm
    if part == "inputs":
        model.weights[0] = model.weights[0][:13]
    elif part == "outputs":
        model.weights[-1] = np.hstack([model.weights[-1], model.weights[-1]])
        model.biases[-1] = np.concatenate([model.biases[-1], model.biases[-1]])
    else:
        model.norm = NormStats(stats.mean[:13], stats.std[:13])
    return model


@pytest.mark.parametrize("part, message", [
    ("inputs", r"mlp layers \[13, .*\] must run from 14 inputs to 1 output"),
    ("outputs", r"mlp layers \[14, .*, 2\] must run from 14 inputs to 1 output"),
    ("normstats", "normstats hold 13 features, expected 14"),
], ids=["inputs", "outputs", "normstats"])
def test_model_of_wrong_width_rejected(tmp_path, part, message):
    path = tmp_path / "m.model"
    save(_widened_mlp(part), path)
    with pytest.raises(ModelFormatError, match=message):
        load(path)


@pytest.mark.parametrize("std", ["0", "-1", "-0"])
def test_non_positive_normstats_std_rejected(tmp_path, std):
    text = _saved(tmp_path, _trained_mlp())
    edited = _first_value("normstats-std")(text, std)
    assert edited != text
    with pytest.raises(ModelFormatError, match=r"edited\.model:4: normstats-std .* not positive"):
        _load_text(tmp_path, edited)


_UNSCALED_KINDS = {
    "baseline": lambda: train_baseline(X_TRAIN, Y_TRAIN),
    "gbt": lambda: train_gbt(X_TRAIN, Y_TRAIN, GbtConfig(n_estimators=2)),
    "catboost": lambda: train_catboost(X_TRAIN, Y_TRAIN, CatBoostConfig(iterations=1)),
}


@pytest.mark.parametrize("kind", sorted(_UNSCALED_KINDS))
def test_normstats_outside_an_mlp_file_rejected(tmp_path, kind):
    # only an MLP standardizes its inputs; another kind would ignore the stats
    normstats = _saved(tmp_path, _trained_mlp()).splitlines()[2:4]
    text = _saved(tmp_path, _UNSCALED_KINDS[kind]())
    edited = text.replace("\nnormstats none\n", "\n" + "\n".join(normstats) + "\n")
    assert edited != text
    with pytest.raises(ModelFormatError,
                       match=rf"edited\.model:3: expected 'normstats none' in a {kind} model"):
        _load_text(tmp_path, edited)


def test_mlp_file_without_normstats_loads(tmp_path):
    # a net built by hand has no stats and reads its input as already z-scored
    trained = _trained_mlp()
    model = MlpModel(weights=trained.weights, biases=trained.biases, l2_lambda=0.0)
    text = _saved(tmp_path, model)
    assert text.splitlines()[2] == "normstats none"
    back = _load_text(tmp_path, text)
    assert back.norm is None
    queries = np.random.default_rng(5).normal(size=(20, 14))
    assert predict_batch(back, queries).tobytes() == predict_batch(model, queries).tobytes()


def test_model_file_that_is_not_utf8_rejected_at_its_line(tmp_path):
    path = tmp_path / "m.model"
    save(train_baseline(X_TRAIN, Y_TRAIN), path)
    path.write_bytes(path.read_bytes().replace(b"\nintercept", b"\ninter\xffcept"))
    with pytest.raises(ModelFormatError, match=r"m\.model:5: .*can't decode byte 0xff"):
        load(path)


def test_mlp_layer_of_zero_width_rejected(tmp_path):
    path = tmp_path / "m.model"
    save(MlpModel(weights=[np.zeros((14, 0)), np.zeros((0, 1))],
                  biases=[np.zeros(0), np.ones(1)], l2_lambda=0.0), path)
    with pytest.raises(ModelFormatError, match=r"m\.model:5: mlp layers \[14, 0, 1\]"):
        load(path)
