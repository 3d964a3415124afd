"""Config parsing, batch execution, aggregation, export, and CLI tests."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddqcl import harness
from ddqcl.ansatz import Ansatz, execute, line_topology
from ddqcl.bas import BasSpec, bas_patterns, bas_target_distribution
from ddqcl.cli import main
from ddqcl.harness import (
    ConfigError,
    ExperimentConfig,
    ReadoutConfig,
    _write_text,
    aggregate,
    export,
    export_confusion,
    load_config,
    run_batch,
    summary_dict,
)
from ddqcl.metrics import js_divergence, kl_divergence, qbas_score
from ddqcl.optim import SOLVERS, AdamConfig, LearningCurve, SvhcConfig, ZooConfig
from ddqcl.readout import ConfusionMatrix, PerQubitFlipModel, calibrate
from ddqcl.sim import probabilities, sample

MINIMAL = {"rows": 2, "cols": 2, "topology": "line", "layers": 2, "optimizer": "adam"}


def _small_doc(**overrides):
    # 4 params, n_ini 12: small enough to run batches in milliseconds
    doc = {
        "rows": 2, "cols": 2, "topology": "line", "layers": 0, "optimizer": "zoo",
        "budget": 20, "shots": 50, "runs": 2, "exact_mode": True,
    }
    doc.update(overrides)
    return doc


# --- config parsing ---


def test_from_dict_minimal_defaults():
    cfg = ExperimentConfig.from_dict(dict(MINIMAL))
    assert (cfg.rows, cfg.cols, cfg.topology, cfg.layers) == (2, 2, "line", 2)
    assert cfg.optimizer == "adam"
    assert cfg.budget == 2000
    assert cfg.shots == 3000
    assert cfg.n_ini_multiplier == 3
    assert cfg.runs == 5
    assert cfg.exact_mode is False
    assert cfg.base_seed == 0
    assert cfg.out_dir is None
    assert cfg.readout is None


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({**MINIMAL, "rowz": 2})
    with pytest.raises(ConfigError, match="unknown readout keys"):
        ExperimentConfig.from_dict({**MINIMAL, "readout": {"p10": 0.05, "flip": 1}})
    with pytest.raises(ConfigError, match="unknown optimizer_options"):
        ExperimentConfig.from_dict({**MINIMAL, "optimizer_options": {"alpha": 0.1, "lr": 1}})


def test_from_dict_missing_required():
    for key in ("rows", "cols", "topology", "layers", "optimizer"):
        doc = dict(MINIMAL)
        del doc[key]
        with pytest.raises(ConfigError, match="missing required"):
            ExperimentConfig.from_dict(doc)


def test_from_dict_types_fail_closed():
    with pytest.raises(ConfigError, match="must be an integer"):
        ExperimentConfig.from_dict({**MINIMAL, "rows": "2"})
    with pytest.raises(ConfigError, match="must be an integer"):
        ExperimentConfig.from_dict({**MINIMAL, "runs": True})
    with pytest.raises(ConfigError, match="must be a boolean"):
        ExperimentConfig.from_dict({**MINIMAL, "exact_mode": 1})
    with pytest.raises(ConfigError, match="must be a number"):
        ExperimentConfig.from_dict({**MINIMAL, "readout": {"p10": "0.05"}})
    with pytest.raises(ConfigError, match="must be a string"):
        ExperimentConfig.from_dict({**MINIMAL, "topology": 4})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict([1, 2])
    # optimizer_options are typed like the top-level keys: no booleans as numbers
    for kind, key, value, message in [
        ("svhc", "subset_size", True, "an integer"),
        ("svhc", "sigma", True, "a number"),
        ("svhc", "suppression_period", False, "an integer"),
        ("adam", "alpha", True, "a number"),
        ("adam", "alpha", None, "a number"),
        ("adam", "fd_step", "0.1", "a number"),
        ("zoo", "elite_size", True, "an integer"),
        ("zoo", "region_width", True, "a number"),
    ]:
        doc = {**MINIMAL, "optimizer": kind, "optimizer_options": {key: value}}
        with pytest.raises(ConfigError, match=f"optimizer_options.{key} must be {message}"):
            ExperimentConfig.from_dict(doc)


def test_optimizer_options_reach_solver_config():
    cfg = ExperimentConfig.from_dict(
        {**MINIMAL, "optimizer_options": {"alpha": 0.5, "fd_step": 0.1}}
    )
    assert isinstance(cfg.optimizer_options, AdamConfig)
    assert cfg.optimizer_options.alpha == 0.5
    assert cfg.optimizer_options.fd_step == 0.1
    assert cfg.optimizer_options.beta1 == 0.9  # untouched default


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("adam", "alpha", 0.0),
        ("adam", "beta1", 1.0),
        ("adam", "beta1", -0.1),
        ("adam", "beta2", 1.0),
        ("adam", "fd_step", 0.0),
        ("adam", "fd_step", -0.1),
        ("adam", "eps", 0.0),
        ("svhc", "sigma", -0.1),
        ("svhc", "subset_size", 0),
        ("svhc", "subset_size", 17),  # L = 16 on the 2-layer 4-qubit line
        ("svhc", "subset_size", 2.5),
        ("svhc", "suppression_period", -1),
        ("svhc", "suppression_period", 2.5),
        ("zoo", "elite_size", 0),
        ("zoo", "elite_size", 2.5),
        ("zoo", "elite_prob", -0.1),
        ("zoo", "elite_prob", 1.5),
        ("zoo", "region_width", 0.0),
        ("zoo", "region_shrink", 0.0),
        ("zoo", "region_shrink", 1.5),
        ("zoo", "stall_limit", 0),
        ("zoo", "stall_limit", 1.5),
        ("zoo", "suppression_period", -1),
    ],
)
def test_out_of_range_optimizer_options_rejected(kind, key, value):
    doc = {**MINIMAL, "optimizer": kind, "optimizer_options": {key: value}}
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize(
    "kind, options",
    [
        ("adam", {}),
        ("svhc", {}),
        ("zoo", {}),
        ("adam", {"beta1": 0.0, "beta2": 0.0}),
        ("svhc", {"sigma": 0.0, "subset_size": 16, "suppression_period": 0}),
        ("zoo", {"elite_prob": 0.0, "region_shrink": 1.0, "suppression_period": 0}),
        ("zoo", {"elite_prob": 1.0, "stall_limit": 1}),
    ],
)
def test_default_and_edge_optimizer_options_accepted(kind, options):
    doc = {**MINIMAL, "optimizer": kind, "optimizer_options": options}
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.optimizer == kind
    assert cfg.optimizer_options == SOLVERS[kind][0](**options)


def test_bad_names_rejected():
    with pytest.raises(ConfigError, match="unknown topology"):
        ExperimentConfig.from_dict({**MINIMAL, "topology": "ring"})
    with pytest.raises(ConfigError, match="unknown optimizer"):
        ExperimentConfig.from_dict({**MINIMAL, "optimizer": "spsa"})


def test_exact_mode_conflicts_with_readout():
    with pytest.raises(ConfigError, match="exact mode"):
        ExperimentConfig.from_dict(
            {**MINIMAL, "exact_mode": True, "readout": {"p10": 0.05}}
        )


def test_budget_must_cover_initialization():
    # 2 layers on the 4-qubit line: L = 16, n_ini = 48
    with pytest.raises(ConfigError, match="budget 48 too small"):
        ExperimentConfig.from_dict({**MINIMAL, "budget": 48})
    assert ExperimentConfig.from_dict({**MINIMAL, "budget": 49}).budget == 49


@pytest.mark.parametrize("key", ["runs", "budget", "shots", "n_ini_multiplier"])
def test_counts_below_one_rejected(tmp_path, capsys, key):
    with pytest.raises(ConfigError, match=f"^{key} must be >= 1, got 0$"):
        ExperimentConfig.from_dict({**MINIMAL, key: 0})
    path = _write_config(tmp_path, {**MINIMAL, key: 0})
    assert main(["validate", "--config", path]) == 1
    assert capsys.readouterr().err == f"error: {key} must be >= 1, got 0\n"


# shot counts an int64 cannot hold; unchecked, `run` with the second died of
# an OverflowError traceback in calibration
_PAST_INT64 = {
    "shots": {"shots": 2**63},
    "calibration_shots": {"readout": {"p10": 0.05, "calibration_shots": 10**20}},
}


# every integer field of ExperimentConfig
_INTEGER_KEYS = [
    "rows", "cols", "layers", "runs", "budget", "shots", "n_ini_multiplier", "base_seed"
]


@pytest.mark.parametrize("value", [2.5, True, np.float64(2.0), "2"], ids=repr)
@pytest.mark.parametrize("key", _INTEGER_KEYS)
def test_config_built_in_code_refuses_non_integer_counts(key, value):
    # a record built in code skips the JSON reader's types; unchecked,
    # shots=3.5 passed validation and failed at the first run
    cfg = ExperimentConfig.from_dict(_small_doc())
    with pytest.raises(ConfigError, match=rf"^{key} must be an integer, got "):
        dataclasses.replace(cfg, **{key: value})


@pytest.mark.parametrize("value", [2.5, True, np.float64(2.0), "2"], ids=repr)
def test_readout_config_refuses_non_integer_calibration_shots(value):
    with pytest.raises(ConfigError, match=r"^readout\.calibration_shots must be an integer, got "):
        ReadoutConfig(p10=0.05, p01=0.05, calibration_shots=value)


def test_base_seed_below_zero_rejected():
    with pytest.raises(ConfigError, match=r"^base_seed must be >= 0, got -1$"):
        ExperimentConfig.from_dict({**MINIMAL, "base_seed": -1})


def test_config_built_with_numpy_integers_exports_the_bytes_from_dict_gives(tmp_path):
    # unchecked, the batch trained and `export` then raised TypeError: json
    # cannot write an np.int64
    doc = _small_doc(exact_mode=False, base_seed=3, readout={"p10": 0.05, "calibration_shots": 100})
    plain = ExperimentConfig.from_dict(doc)
    readout = dataclasses.replace(plain.readout, calibration_shots=np.int64(100))
    numpy_cfg = dataclasses.replace(
        plain, readout=readout, **{key: np.int64(getattr(plain, key)) for key in _INTEGER_KEYS}
    )
    stored = [getattr(numpy_cfg, key) for key in _INTEGER_KEYS]
    assert stored == [getattr(plain, key) for key in _INTEGER_KEYS]
    assert {type(v) for v in [*stored, numpy_cfg.readout.calibration_shots]} == {int}
    names = [p.name for p in export(run_batch(plain), tmp_path / "plain")]
    assert [p.name for p in export(run_batch(numpy_cfg), tmp_path / "numpy")] == names
    assert "config.json" in names and "confusion.json" in names
    for name in names:
        assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_config_built_with_numpy_floats_exports_the_bytes_its_from_dict_twin_gives(tmp_path):
    # unchecked, the batch trained and `export` then raised TypeError: json
    # cannot write an np.float32
    doc = _small_doc(exact_mode=False, readout={"p10": 0.05, "calibration_shots": 100})
    options = ZooConfig(elite_prob=np.float32(0.9), region_width=np.float64(1.5),
                        region_shrink=np.float32(0.8))
    readout = ReadoutConfig(p10=np.float32(0.05), p01=np.float64(0.03), calibration_shots=100)
    cfg = dataclasses.replace(ExperimentConfig.from_dict(doc), optimizer_options=options,
                              readout=readout)
    stored = [*dataclasses.astuple(cfg.optimizer_options), cfg.readout.p10, cfg.readout.p01]
    assert {type(v) for v in stored} == {int, float}
    names = [p.name for p in export(run_batch(cfg), tmp_path / "numpy")]
    twin = load_config(tmp_path / "numpy" / "config.json")
    assert [p.name for p in export(run_batch(twin), tmp_path / "twin")] == names
    assert "config.json" in names and "confusion.json" in names
    for name in names:
        assert (tmp_path / "twin" / name).read_bytes() == (tmp_path / "numpy" / name).read_bytes()


# each record a config holds, with the solver whose options it is
_RECORDS = {ExperimentConfig: "adam", ReadoutConfig: "adam", AdamConfig: "adam",
            SvhcConfig: "svhc", ZooConfig: "zoo"}
# every field of each record that holds one value, not another record
_SCALAR_FIELDS = [
    (record, f) for record in _RECORDS for f in dataclasses.fields(record)
    if f.name not in ("optimizer_options", "readout")
]


def _built_in_code(record, key, value):
    """A small shot-mode config with a flip channel, built in code, whose
    `record` has `value` in its field `key`."""
    fields = {record: {key: value}}
    readout = {"p10": 0.05, "p01": 0.05, "calibration_shots": 100, **fields.get(ReadoutConfig, {})}
    readout = ReadoutConfig(**readout)
    kind = _RECORDS[record]
    options = SOLVERS[kind][0](**fields.get(SOLVERS[kind][0], {}))
    top = {"rows": 2, "cols": 2, "topology": "line", "layers": 0, "runs": 1, "budget": 20,
           "shots": 50, **fields.get(ExperimentConfig, {})}
    return ExperimentConfig(**top, optimizer_options=options, readout=readout)


def _of_its_kind(field, value):
    """Whether `value` is of a type the field's annotation names."""
    kinds = field.type.split(" | ")
    if value is None:
        return "None" in kinds
    if isinstance(value, bool):
        return "bool" in kinds
    types = {"int": (int, np.integer), "float": (int, float, np.integer, np.floating),
             "str": str, "bool": ()}
    return isinstance(value, types[kinds[0]])


_PROBE_VALUES = st.one_of(
    st.integers(-2, 40),
    st.integers(-2, 40).map(np.int64),
    st.floats(),
    st.floats(-2, 2).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.sampled_from([True, False, None, "line", "0.05", "", math.nan, math.inf, -math.inf,
                     10**400, 0.05, 1, Path("results")]),
)


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(_SCALAR_FIELDS), value=_PROBE_VALUES)
def test_config_built_in_code_is_refused_or_rebuilds_from_its_own_json(field, value):
    # each record checks its own values: a config the API accepts rebuilds,
    # byte for byte, from the config.json it exports.  Bytes, not dicts:
    # `1 == 1.0` hid an `alpha` of 1 that came back as 1.0
    record, f = field
    try:
        cfg = _built_in_code(record, f.name, value)
    except ValueError as e:
        # a value of the field's own kind may break a rule across fields
        # (budget, qubit cap, conditioning); one of any other kind is
        # refused by the field's own rule, which names the field
        assert _of_its_kind(f, value) or re.search(rf"\b{f.name} must be ", str(e)), str(e)
        return
    text = json.dumps(cfg.to_dict(), sort_keys=True)
    twin = ExperimentConfig.from_dict(json.loads(text))
    assert json.dumps(twin.to_dict(), sort_keys=True) == text


@pytest.mark.parametrize(
    "record, key", [(r, f.name) for r, f in _SCALAR_FIELDS], ids=lambda x: getattr(x, "__name__", x)
)
def test_every_scalar_field_refuses_an_object(record, key):
    # the JSON reader checks key names only, so a field no rule checks would
    # take anything; this walks every field, new ones too
    with pytest.raises(ValueError, match=rf"\b{key} must be "):
        _built_in_code(record, key, object())


def test_config_refuses_a_readout_that_is_not_a_record():
    cfg = ExperimentConfig.from_dict(_small_doc(exact_mode=False))
    # unchecked, a dict raised AttributeError: 'dict' object has no attribute 'p10'
    with pytest.raises(ConfigError, match=r"^readout must be a ReadoutConfig or None, got \{"):
        dataclasses.replace(cfg, readout={"p10": 0.05, "p01": 0.05})


def test_readout_config_built_in_code_defaults_p01_to_p10():
    # as in JSON; before, ReadoutConfig(p10=0.05) raised TypeError
    readout = ReadoutConfig(p10=np.float32(0.25))
    assert readout.p01 == readout.p10 == 0.25 and type(readout.p01) is float
    assert ReadoutConfig(p10=0.05, p01=None) == ReadoutConfig(p10=0.05, p01=0.05)
    cfg = ExperimentConfig.from_dict({**MINIMAL, "readout": {"p10": 0.05}})
    assert cfg.to_dict()["readout"]["p01"] == 0.05


@pytest.mark.parametrize("name", sorted(_PAST_INT64))
def test_shot_counts_past_int64_rejected(name):
    with pytest.raises(ConfigError, match=f"{name} must be .*{2**63 - 1}.*, got "):
        ExperimentConfig.from_dict({**MINIMAL, **_PAST_INT64[name]})


def test_shot_counts_of_int64_max_accepted():
    doc = {**MINIMAL, "shots": 2**63 - 1, "readout": {"p10": 0.05, "calibration_shots": 2**63 - 1}}
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.shots == cfg.readout.calibration_shots == 2**63 - 1


def test_readout_validation():
    # flip probabilities are checked by the record, and named by their keys
    with pytest.raises(ConfigError, match="p10"):
        ExperimentConfig.from_dict({**MINIMAL, "readout": {"p10": 0.5, "p01": 0.1}})
    with pytest.raises(ConfigError, match="p01"):
        ExperimentConfig.from_dict({**MINIMAL, "readout": {"p10": 0.05, "p01": -0.1}})
    with pytest.raises(ConfigError, match="calibration_shots"):
        ReadoutConfig(p10=0.05, p01=0.05, calibration_shots=0)
    with pytest.raises(ConfigError, match=r"readout.p10 must be in \[0, 0.5\)"):
        ReadoutConfig(p10=0.7)
    with pytest.raises(ConfigError, match=r"readout.p01 must be in \[0, 0.5\)"):
        ReadoutConfig(p10=0.05, p01=0.5)
    with pytest.raises(ConfigError, match=r"^readout.p10 must be in \[0, 0.5\), got 0.5$"):
        ExperimentConfig.from_dict({**MINIMAL, "readout": {"p10": 0.5}})
    r = ExperimentConfig.from_dict({**MINIMAL, "readout": {"p10": 0.05}}).readout
    assert r.p01 == 0.05  # p01 defaults to p10
    assert r.correction is True


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: AdamConfig(alpha=10**400), "alpha"),
        (lambda: ExperimentConfig.from_dict({**MINIMAL, "topology": "x" * 5000}), "topology"),
    ],
    ids=["alpha", "topology"],
)
def test_refused_value_is_shown_briefly(build, field):
    # shown in full, 10**400 made a one-line error of 436 characters
    with pytest.raises(ValueError, match=field) as refused:
        build()
    assert len(str(refused.value)) < 200


def test_dense_correction_width_cap():
    # 12 qubits (3x4) is the widest corrected register; 13 (1x13) needs 512 MiB
    wide = {**MINIMAL, "layers": 0, "readout": {"p10": 0.05}}
    ExperimentConfig.from_dict({**wide, "rows": 3, "cols": 4})
    with pytest.raises(ConfigError, match=r"13 qubits .* 8192x8192 .* \(0.5 GiB\)"):
        ExperimentConfig.from_dict({**wide, "rows": 1, "cols": 13})
    with pytest.raises(ConfigError, match=r"16 qubits .* \(32 GiB\)"):
        ExperimentConfig.from_dict({**wide, "rows": 4, "cols": 4})
    # the sampled channel alone needs no matrix
    doc = {**wide, "rows": 4, "cols": 4, "readout": {"p10": 0.05, "correction": False}}
    assert ExperimentConfig.from_dict(doc).readout.correction is False


def test_ill_conditioned_channel_refused_at_validation(tmp_path, capsys):
    # 45% flips on 9 qubits: the exact channel's condition number is 10^9, 10
    # per qubit, though a calibrated estimate passes its own check; corrected,
    # the batch would report shot noise magnified by about that much
    doc = {**MINIMAL, "rows": 3, "cols": 3, "readout": {"p10": 0.45}}
    refusal = r"^readout channel too ill-conditioned \(cond 1\.000e\+09\)$"
    with pytest.raises(ConfigError, match=refusal):
        ExperimentConfig.from_dict(doc)
    assert main(["validate", "--config", _write_config(tmp_path, doc)]) == 1
    out, err = capsys.readouterr()
    assert not out and err.startswith("error: readout channel") and err.count("\n") == 1
    # without correction nothing is inverted
    ExperimentConfig.from_dict({**doc, "readout": {"p10": 0.45, "correction": False}})


# every option of each solver, none at its default
_NON_DEFAULT_OPTIONS = {
    "adam": {"alpha": 0.1, "beta1": 0.8, "beta2": 0.99, "fd_step": 0.2, "eps": 1e-6},
    "svhc": {"sigma": 0.1, "subset_size": 2, "suppression_period": 10},
    "zoo": {
        "elite_size": 4, "elite_prob": 0.5, "region_width": 1.5, "region_shrink": 0.8,
        "stall_limit": 5, "suppression_period": 10,
    },
}


def test_roundtrip_through_dict():
    for kind, options in _NON_DEFAULT_OPTIONS.items():
        doc = {
            **MINIMAL,
            "optimizer_options": options,
            "optimizer": kind,
            "runs": 3,
            "budget": 100,
            "shots": 500,
            "n_ini_multiplier": 2,
            "exact_mode": False,
            "base_seed": 11,
            "out_dir": "results",
            "readout": {"p10": 0.02, "p01": 0.03, "correction": False, "calibration_shots": 100},
        }
        defaults = dataclasses.asdict(SOLVERS[kind][0]())
        assert defaults.keys() == options.keys()
        assert all(options[k] != v for k, v in defaults.items())
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.to_dict() == doc
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_readme_config_is_the_schema():
    # the README's full config sets every key and shows the defaults it claims
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    doc = json.loads(re.search(r"A full config:\n\n```json\n(.*?)```", text, re.S).group(1))
    cfg = ExperimentConfig.from_dict(doc)
    echo = cfg.to_dict()
    assert ExperimentConfig.from_dict(echo) == cfg
    assert set(echo) == set(doc)
    assert set(echo["readout"]) == set(doc["readout"])
    required = {k: doc[k] for k in ("rows", "cols", "topology", "layers", "optimizer")}
    defaults = ExperimentConfig.from_dict({**required, "readout": {"p10": doc["readout"]["p10"]}})
    defaults = defaults.to_dict()
    for key in ("runs", "budget", "shots", "n_ini_multiplier", "exact_mode", "base_seed"):
        assert doc[key] == defaults[key], key
    assert doc["readout"] == defaults["readout"]
    options = {k: defaults["optimizer_options"][k] for k in doc["optimizer_options"]}
    assert doc["optimizer_options"] == pytest.approx(options, abs=1e-3)
    assert defaults["out_dir"] is None


def test_readme_library_example_runs(tmp_path):
    # the README's library block, run against this checkout's src/
    root = Path(__file__).parents[1]
    text = (root / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    best_js, zero_js = (float(line) for line in proc.stdout.split())
    assert 0.0 <= best_js < np.log(2)
    zero = probabilities(execute(Ansatz(line_topology(4), 2), np.zeros(16)))
    assert zero_js == js_divergence(zero, bas_target_distribution(BasSpec(2, 2)))


@pytest.mark.parametrize("layers", [100_000, 10**400], ids=["1e5", "1e400"])
def test_layers_beyond_the_budget_rejected_at_once(layers):
    # the parameter count alone shows the budget is too small; nothing is laid out
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="budget 2000 too small"):
            ExperimentConfig.from_dict({**MINIMAL, "layers": layers})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# configs a run cannot hold in memory, each accepted by the budget check
_TOO_LARGE = {
    "pool": {"layers": 10**4, "budget": 10**6},  # 180012 x 60004 float64: 86 GB
    "1e12": {"layers": 10**12, "budget": 10**14},
    "1e400": {"layers": 10**400, "budget": 10**402},
    "record": {"budget": 4 * 10**7},  # 32 bytes per recorded cost: 1.28 GB
    "batch": {"runs": 10**12, "budget": 10**7},  # each run fits; the kept curves do not
}


@pytest.mark.parametrize("name", sorted(_TOO_LARGE))
def test_runs_beyond_the_memory_cap_rejected(name):
    with pytest.raises(ConfigError, match=r"holds \S+ bytes; the cap is 1073741824 bytes"):
        ExperimentConfig.from_dict({**MINIMAL, **_TOO_LARGE[name]})


def test_memory_cap_names_the_bytes():
    pool = r"180012 initial draws of 60004 parameters .* holds 8.64e\+10 bytes"
    with pytest.raises(ConfigError, match=pool):
        ExperimentConfig.from_dict({**MINIMAL, **_TOO_LARGE["pool"]})
    # 10^7 recorded costs (320 MB) fit under the 1 GiB cap
    assert ExperimentConfig.from_dict({**MINIMAL, "budget": 10**7}).budget == 10**7
    # a batch keeps runs x budget costs and 3 aggregate curves, 8 bytes each:
    # 8 x 10^7 x (10^12 + 3) bytes, refused without running anything
    batch = r"a batch of 1000000000000 runs of 10000000 recorded costs.* holds 8.00e\+19 bytes"
    with pytest.raises(ConfigError, match=batch):
        ExperimentConfig.from_dict({**MINIMAL, **_TOO_LARGE["batch"]})
    # the default 5 runs of 10^7 costs keep 640 MB
    assert ExperimentConfig.from_dict({**MINIMAL, "budget": 10**7}).runs == 5


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(_small_doc()), encoding="utf-8")
    assert load_config(p) == ExperimentConfig.from_dict(_small_doc())


_HEAD = '"rows": 2, "cols": 2, "topology": "line", "layers": 1, "optimizer": "adam"'


@pytest.mark.parametrize(
    "text, key",
    [
        ("{" + _HEAD + ', "budget": 100, "budget": 3000}', "budget"),
        ("{" + _HEAD + ', "readout": {"p10": 0.05, "p10": 0.2}}', "p10"),
    ],
    ids=["top-level", "nested"],
)
def test_load_config_rejects_duplicate_keys(tmp_path, capsys, text, key):
    # plain json.loads keeps the last value: budget 3000 and p10 0.2
    p = tmp_path / "config.json"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"config key '{key}' appears twice"):
        load_config(p)
    assert main(["validate", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# --- aggregation ---


def _curve(costs):
    return LearningCurve(np.asarray(costs, dtype=float), np.zeros(1), np.zeros(1))


def test_aggregate_single_curve():
    c = _curve([3.0, 2.0, 2.5])
    med, lo, hi = aggregate([c])
    for arr in (med, lo, hi):
        np.testing.assert_array_equal(arr, [3.0, 2.0, 2.0])


def test_aggregate_constants():
    med, lo, hi = aggregate([_curve([1.0]), _curve([2.0]), _curve([3.0])])
    assert (med[0], lo[0], hi[0]) == (2.0, 1.0, 3.0)


def test_aggregate_bounds_property():
    rng = np.random.default_rng(0)
    curves = [_curve(rng.random(40)) for _ in range(5)]
    med, lo, hi = aggregate(curves)
    assert np.all(lo <= med) and np.all(med <= hi)
    for c in curves:
        assert np.all(lo <= c.best_costs) and np.all(c.best_costs <= hi)


def test_aggregate_rejects_mixed_lengths():
    with pytest.raises(ValueError, match="unequal"):
        aggregate([_curve([1.0, 2.0]), _curve([1.0])])
    with pytest.raises(ValueError):
        aggregate([])


# --- batch execution ---


def test_minimal_single_qubit_batch():
    cfg = ExperimentConfig.from_dict(
        {
            "rows": 1, "cols": 1, "topology": "line", "layers": 0, "optimizer": "svhc",
            "budget": 10, "shots": 20, "runs": 1, "exact_mode": True,
        }
    )
    result = run_batch(cfg)
    assert len(result.runs) == 1
    assert result.runs[0].evaluations == 10
    assert summary_dict(result)["runs"][0]["shots_per_evaluation"] == 0
    assert result.confusion is None
    # one qubit, both patterns wanted: the uniform target is exactly reachable
    assert result.runs[0].best_js < 0.1


def test_batch_seeds_are_consecutive():
    cfg = ExperimentConfig.from_dict(_small_doc(runs=3, base_seed=7))
    result = run_batch(cfg)
    assert [r.seed for r in result.runs] == [7, 8, 9]


def test_exact_metrics_recomputable():
    # reported KL and qBAS must replay from best_params and the metrics stream
    cfg = ExperimentConfig.from_dict(_small_doc(runs=2))
    result = run_batch(cfg)
    ansatz = cfg.build_ansatz()
    target = bas_target_distribution(cfg.bas)
    patterns = bas_patterns(cfg.bas)
    for r in result.runs:
        dist = probabilities(execute(ansatz, r.curve.best_params))
        assert r.kl == pytest.approx(kl_divergence(target, dist), abs=1e-9)
        h = sample(dist, cfg.shots, np.random.default_rng((r.seed, 2)))
        score = qbas_score(h, patterns)
        assert (r.qbas.precision, r.qbas.recall, r.qbas.f1) == (
            score.precision, score.recall, score.f1,
        )


def test_batch_with_correction_calibrates_once():
    cfg = ExperimentConfig.from_dict(
        _small_doc(
            exact_mode=False, runs=1,
            readout={"p10": 0.02, "calibration_shots": 200},
        )
    )
    result = run_batch(cfg)
    assert result.confusion is not None
    assert result.confusion.n_qubits == 4
    # calibration stream is pinned to (base_seed, 1)
    from ddqcl.readout import calibrate

    expected = calibrate(cfg.build_channel(), 200, np.random.default_rng((0, 1)))
    np.testing.assert_array_equal(result.confusion.entries, expected.entries)


def test_batch_without_correction_has_no_confusion():
    cfg = ExperimentConfig.from_dict(
        _small_doc(exact_mode=False, runs=1, readout={"p10": 0.02, "correction": False})
    )
    assert run_batch(cfg).confusion is None


# --- export ---


def test_export_file_set(tmp_path):
    result = run_batch(ExperimentConfig.from_dict(_small_doc()))
    files = export(result, tmp_path / "out")
    names = sorted(p.name for p in files)
    assert names == ["aggregate.csv", "config.json", "curve_run0.csv", "curve_run1.csv",
                     "summary.json"]
    for p in files:
        assert p.exists()


def test_export_over_an_earlier_batch_leaves_only_its_own_files(tmp_path):
    # a 3-run corrected batch, then a 1-run exact batch, into one directory
    readout = {"p10": 0.02, "calibration_shots": 100}
    corrected = _small_doc(exact_mode=False, runs=3, readout=readout)
    first = run_batch(ExperimentConfig.from_dict(corrected))
    assert {"curve_run2.csv", "confusion.json"} <= {p.name for p in export(first, tmp_path)}
    files = export(run_batch(ExperimentConfig.from_dict(_small_doc(runs=1))), tmp_path)
    assert sorted(tmp_path.iterdir()) == sorted(files)


@pytest.mark.parametrize("failing", ["curve_run1.csv", "confusion.json"])
def test_interrupted_export_leaves_no_summary(tmp_path, monkeypatch, failing):
    # a whole batch first, then an export over it that fails part way
    doc = _small_doc(exact_mode=False, readout={"p10": 0.02, "calibration_shots": 100})
    result = run_batch(ExperimentConfig.from_dict(doc))
    export(result, tmp_path)
    assert (tmp_path / "summary.json").exists()

    write_text = harness._write_text

    def failing_write(path, text):
        if path.name == failing:
            raise OSError(f"failed writing {path}: injected")
        return write_text(path, text)

    monkeypatch.setattr(harness, "_write_text", failing_write)
    with pytest.raises(OSError, match="injected"):
        export(result, tmp_path)
    assert (tmp_path / "config.json").exists()
    assert not (tmp_path / "summary.json").exists()


def test_export_deletes_no_other_name(tmp_path):
    kept = ["curve_run01.csv", "curve_run2.csv.bak", "curve_run_old.csv", "notes.txt"]
    for name in kept:
        (tmp_path / name).write_text("mine\n", encoding="utf-8")
    files = export(run_batch(ExperimentConfig.from_dict(_small_doc(runs=1))), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([p.name for p in files] + kept)


def test_failed_write_keeps_the_old_file(tmp_path):
    # a lone surrogate cannot be encoded as UTF-8, so the write fails midway
    target = tmp_path / "summary.json"
    target.write_text("old\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        _write_text(target, "new\ud800\n")
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


def test_failed_rename_leaves_no_temp_file(tmp_path):
    (tmp_path / "summary.json").mkdir()  # a directory cannot be replaced by a file
    with pytest.raises(OSError, match="failed writing"):
        _write_text(tmp_path / "summary.json", "{}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]
    assert (tmp_path / "summary.json").is_dir()


def test_write_replaces_the_old_file(tmp_path):
    target = tmp_path / "aggregate.csv"
    target.write_text("old\n", encoding="utf-8")
    _write_text(target, "new\n")
    assert target.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["aggregate.csv"]


def test_export_includes_confusion_when_calibrated(tmp_path):
    cfg = ExperimentConfig.from_dict(
        _small_doc(exact_mode=False, runs=1, readout={"p10": 0.02, "calibration_shots": 100})
    )
    files = export(run_batch(cfg), tmp_path)
    assert "confusion.json" in {p.name for p in files}
    doc = json.loads((tmp_path / "confusion.json").read_text(encoding="utf-8"))
    assert doc["n_qubits"] == 4
    assert len(doc["entries"]) == 256


def test_exported_confusion_entries_exact(tmp_path):
    cfg = ExperimentConfig.from_dict(
        _small_doc(exact_mode=False, runs=1, readout={"p10": 0.03, "p01": 0.07,
                                                      "calibration_shots": 100})
    )
    result = run_batch(cfg)
    export(result, tmp_path)
    doc = json.loads((tmp_path / "confusion.json").read_text(encoding="utf-8"))
    entries = np.array(doc["entries"]).reshape(16, 16)
    np.testing.assert_array_equal(entries, result.confusion.entries)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_exported_confusion_bytes_match_indented_dump(tmp_path, n):
    # the C-encoded entries, reflowed, are exactly what json's indent=2 writes
    model = PerQubitFlipModel.uniform(n, 0.05, 0.02)
    entries = np.array(calibrate(model, 100, np.random.default_rng(n)).entries)
    entries[:, 0] = 0.0
    entries[0, 0], entries[1, 0] = 1.0, -0.0
    entries[:, 1] = 0.0
    entries[0, 1], entries[1, 1] = 0.1 + 0.2, 0.7
    if n > 1:  # one qubit has only the two columns above
        entries[:, 2] = 0.0
        entries[0, 2], entries[2, 2], entries[3, 2] = 5e-324, 1 - 1e-05, 1e-05
    m = ConfusionMatrix(entries)
    doc = {"n_qubits": n, "entries": np.ravel(entries).tolist()}
    written = export_confusion(m, tmp_path).read_bytes()
    assert written == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _one_line_entries(entries):
    # every entry through the C encoder on one line, then reflowed
    return json.dumps(entries.reshape(-1).tolist())[1:-1].replace(", ", ",\n    ")


def _hand_built_entries():
    entries = np.eye(4)
    entries[1, 0] = -0.0
    entries[:, 1] = (5e-324, 1 - 1e-05, 1e-05, 0.0)
    entries[:, 3] = (0.0, 0.0, 0.25, 0.75)
    return entries


@pytest.mark.parametrize(
    "entries",
    [
        lambda: calibrate(PerQubitFlipModel.uniform(9, 0.05), 10_000, np.random.default_rng(0))
        .entries,
        _hand_built_entries,
    ],
    ids=["calibrated-9q", "signed-zero-subnormal-one"],
)
def test_confusion_encoded_once_per_value_matches_one_line_encoding(tmp_path, entries):
    m = ConfusionMatrix(entries())
    assert len(np.unique(m.entries)) < m.entries.size  # values repeat
    expected = (
        f'{{\n  "entries": [\n    {_one_line_entries(m.entries)}\n  ],\n'
        f'  "n_qubits": {m.n_qubits}\n}}\n'
    )
    assert export_confusion(m, tmp_path).read_text(encoding="utf-8") == expected


def test_exact_16_qubit_batch_exports_the_same_bytes_on_one_and_two_cpus(tmp_path, monkeypatch):
    # two CPUs score ADAM's rows on two threads; the export must not show it
    doc = {
        "rows": 4, "cols": 4, "topology": "line", "layers": 1, "optimizer": "adam",
        "exact_mode": True, "n_ini_multiplier": 1, "runs": 1, "budget": 60,
    }
    cfg = ExperimentConfig.from_dict(doc)
    digests = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        out = tmp_path / f"cpus{cpus}"
        export(run_batch(cfg), out)
        digests.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert digests[0] == digests[1]
    assert len(digests[0]) == 4


def test_export_deterministic_bytes(tmp_path):
    cfg = ExperimentConfig.from_dict(_small_doc())
    export(run_batch(cfg), tmp_path / "a")
    export(run_batch(cfg), tmp_path / "b")
    for name in ("config.json", "curve_run0.csv", "curve_run1.csv", "aggregate.csv",
                 "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _read_csv(path):
    """The header line, and the columns after the row number as float arrays."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = [row.split(",") for row in rows]
    assert [c[0] for c in cells] == [str(j) for j in range(1, len(rows) + 1)]
    return header, np.array([[float(v) for v in c[1:]] for c in cells]).T


def test_export_csv_layout(tmp_path):
    # three runs, so the median, min and max columns can all differ
    cfg = ExperimentConfig.from_dict(_small_doc(runs=3))
    result = run_batch(cfg)
    export(result, tmp_path)
    curve = result.runs[0].curve
    header, (costs, best_costs) = _read_csv(tmp_path / "curve_run0.csv")
    assert header == "evaluation,cost,best_cost"
    assert len(costs) == 20
    # floats are written with enough digits to round-trip exactly
    np.testing.assert_array_equal(costs, curve.costs)
    np.testing.assert_array_equal(best_costs, curve.best_costs)
    header, columns = _read_csv(tmp_path / "aggregate.csv")
    assert header == "evaluation,median,min,max"
    assert len(columns[0]) == 20
    np.testing.assert_array_equal(columns, aggregate([r.curve for r in result.runs]))


def test_export_summary_content(tmp_path):
    cfg = ExperimentConfig.from_dict(_small_doc())
    result = run_batch(cfg)
    export(result, tmp_path)
    doc = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert len(doc["runs"]) == 2
    run0 = doc["runs"][0]
    assert run0["seed"] == 0
    assert run0["evaluations"] == 20
    assert run0["shots_per_evaluation"] == 0
    assert len(run0["best_params"]) == 4
    assert doc["batch"]["runs"] == 2
    assert doc["batch"]["total_evaluations"] == 40
    assert doc["batch"]["best_js"] == min(r["best_js"] for r in doc["runs"])
    assert doc["batch"]["calibration"] is None


def test_result_records_compare_and_hash_by_identity():
    # a field-wise `==` over arrays would raise asking for an array's truth value
    doc = _small_doc(exact_mode=False, readout={"p10": 0.02, "calibration_shots": 100})
    a, b = (run_batch(ExperimentConfig.from_dict(doc)) for _ in range(2))
    np.testing.assert_array_equal(a.runs[0].curve.costs, b.runs[0].curve.costs)
    np.testing.assert_array_equal(a.confusion.entries, b.confusion.entries)
    for x, y in [(a, b), (a.runs[0], b.runs[0]), (a.runs[0].curve, b.runs[0].curve),
                 (a.confusion, b.confusion)]:
        assert (x == y) is False
        assert x == x
        assert hash(x) == hash(x)
        assert len({x, y, x}) == 2 and y in {y}
    # a record rebuilt on the very same curve, runs and matrix is another record
    for x in (a, a.runs[0]):
        twin = dataclasses.replace(x)
        assert (twin == x) is False and len({x, twin}) == 2


def test_config_echo_roundtrips(tmp_path):
    cfg = ExperimentConfig.from_dict(_small_doc(runs=1))
    export(run_batch(cfg), tmp_path)
    echoed = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
    assert ExperimentConfig.from_dict(echoed) == cfg


# --- command line ---


def _write_config(tmp_path, doc):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def test_cli_validate(tmp_path, capsys):
    path = _write_config(tmp_path, _small_doc())
    assert main(["validate", "--config", path]) == 0
    assert capsys.readouterr().out == (
        "config OK: 2x2 target on 4 qubits, line topology, 0 layer(s), 4 parameters, "
        "zoo x 2 run(s), budget 20\n"
    )


def test_cli_validate_bad_config(tmp_path, capsys):
    path = _write_config(tmp_path, {**MINIMAL, "topology": "ring"})
    assert main(["validate", "--config", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_validate_names_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark
    with pytest.raises(ConfigError, match="is not UTF-8"):
        load_config(path)
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path} is not UTF-8: ") and err.count("\n") == 1


def test_cli_run(tmp_path, capsys):
    path = _write_config(tmp_path, _small_doc(runs=1))
    out_dir = tmp_path / "results"
    assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "run seed=0" in out
    assert (out_dir / "summary.json").exists()


def test_cli_run_needs_out_dir(tmp_path, capsys):
    path = _write_config(tmp_path, _small_doc(runs=1))
    assert main(["run", "--config", path]) == 1
    assert "no output directory" in capsys.readouterr().err


def test_cli_seed_override(tmp_path, capsys):
    path = _write_config(tmp_path, _small_doc(runs=1))
    out_dir = tmp_path / "results"
    assert main(["run", "--config", path, "--out", str(out_dir), "--seed", "42"]) == 0
    doc = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert doc["runs"][0]["seed"] == 42


def test_cli_out_dir_from_config(tmp_path, capsys):
    out_dir = tmp_path / "from_config"
    path = _write_config(tmp_path, _small_doc(runs=1, out_dir=str(out_dir)))
    assert main(["run", "--config", path]) == 0
    assert (out_dir / "summary.json").exists()


def test_cli_calibrate(tmp_path, capsys):
    doc = _small_doc(
        exact_mode=False, runs=1, readout={"p10": 0.05, "calibration_shots": 100}
    )
    path = _write_config(tmp_path, doc)
    out_dir = tmp_path / "cal"
    assert main(["calibrate", "--config", path, "--out", str(out_dir)]) == 0
    written = json.loads((out_dir / "confusion.json").read_text(encoding="utf-8"))
    assert written["n_qubits"] == 4


def test_cli_calibrate_and_run_write_same_confusion(tmp_path, capsys):
    doc = _small_doc(
        exact_mode=False, runs=1, readout={"p10": 0.05, "calibration_shots": 100}
    )
    path = _write_config(tmp_path, doc)
    assert main(["calibrate", "--config", path, "--out", str(tmp_path / "cal"), "--seed", "7"]) == 0
    assert main(["run", "--config", path, "--out", str(tmp_path / "run"), "--seed", "7"]) == 0
    cal = (tmp_path / "cal" / "confusion.json").read_bytes()
    assert cal == (tmp_path / "run" / "confusion.json").read_bytes()


def test_cli_calibrate_refuses_a_batch_directory(tmp_path, capsys):
    # a seed-7 confusion.json beside a seed-0 summary.json would pass for one batch
    doc = _small_doc(
        exact_mode=False, runs=1, readout={"p10": 0.05, "calibration_shots": 100}
    )
    path = _write_config(tmp_path, doc)
    out_dir = tmp_path / "batch"
    assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    capsys.readouterr()
    assert main(["calibrate", "--config", path, "--out", str(out_dir), "--seed", "7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out_dir / "summary.json") in err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


@pytest.mark.parametrize("command", ["calibrate", "run"])
def test_cli_refuses_singular_calibration(tmp_path, capsys, command):
    # one shot per basis state at 45% flips: with seed 1 both columns read 1
    doc = {
        "rows": 1, "cols": 1, "topology": "line", "layers": 0, "optimizer": "adam",
        "readout": {"p10": 0.45, "calibration_shots": 1},
    }
    path = _write_config(tmp_path, doc)
    out_dir = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out_dir), "--seed", "1"]) == 1
    assert "ill-conditioned" in capsys.readouterr().err
    assert not (out_dir / "confusion.json").exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"optimizer_options": {"fd_step": 0.0}},
        {"optimizer": "zoo", "optimizer_options": {"region_shrink": 0.0}},
        {"rows": 4, "cols": 4, "layers": 0, "readout": {"p10": 0.05}},
        {"optimizer_options": {"alpha": float("inf")}},  # written as Infinity
        {"optimizer_options": {"alpha": float("nan")}},  # written as NaN
        {"optimizer_options": {"alpha": "1e400"}},  # written as the number 1e400
        {"optimizer_options": {"alpha": "0.2"}},
        {"topology": ["line"]},
        {"readout": {"p10": 10**400}},  # too large for float64
        *_TOO_LARGE.values(),
        *_PAST_INT64.values(),
        {"readout": {"p10": 0.5}},
    ],
)
def test_cli_validate_rejects_in_one_line(tmp_path, capsys, overrides):
    path = _write_config(tmp_path, {**MINIMAL, **overrides})
    # json.dumps cannot write the number 1e400, so the string stands for it
    text = Path(path).read_text(encoding="utf-8").replace('"1e400"', "1e400")
    Path(path).write_text(text, encoding="utf-8")
    assert main(["validate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_cli_calibrate_refuses_register_too_wide_to_correct(tmp_path, capsys):
    # validate accepts an uncorrected 16-qubit channel, but calibrating it
    # would run 65,536 experiments into a 32 GiB matrix
    doc = {**MINIMAL, "rows": 4, "cols": 4, "layers": 0,
           "readout": {"p10": 0.05, "correction": False}}
    path = _write_config(tmp_path, doc)
    assert main(["validate", "--config", path]) == 0
    out_dir = tmp_path / "cal"
    assert main(["calibrate", "--config", path, "--out", str(out_dir)]) == 1
    assert "16 qubits" in capsys.readouterr().err
    assert not (out_dir / "confusion.json").exists()


def test_cli_calibrate_needs_readout(tmp_path, capsys):
    path = _write_config(tmp_path, _small_doc(runs=1))
    out_dir = tmp_path / "cal"
    assert main(["calibrate", "--config", path, "--out", str(out_dir)]) == 1
    assert "readout" in capsys.readouterr().err
