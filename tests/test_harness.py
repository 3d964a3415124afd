"""Config parsing, batch execution, aggregation, export, and CLI tests."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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
from ddqcl.optim import SOLVERS, AdamConfig, LearningCurve
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
        with pytest.raises(ConfigError, match=f"'optimizer_options.{key}' must be {message}"):
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


def test_readout_validation():
    # flip probabilities are checked by building the channel
    with pytest.raises(ConfigError, match="p10"):
        ExperimentConfig.from_dict({**MINIMAL, "readout": {"p10": 0.5, "p01": 0.1}})
    with pytest.raises(ConfigError, match="p01"):
        ExperimentConfig.from_dict({**MINIMAL, "readout": {"p10": 0.05, "p01": -0.1}})
    with pytest.raises(ConfigError, match="calibration_shots"):
        ReadoutConfig(p10=0.05, p01=0.05, calibration_shots=0)
    r = ExperimentConfig.from_dict({**MINIMAL, "readout": {"p10": 0.05}}).readout
    assert r.p01 == 0.05  # p01 defaults to p10
    assert r.correction is True


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


def test_export_deterministic_bytes(tmp_path):
    cfg = ExperimentConfig.from_dict(_small_doc())
    export(run_batch(cfg), tmp_path / "a")
    export(run_batch(cfg), tmp_path / "b")
    for name in ("config.json", "curve_run0.csv", "curve_run1.csv", "aggregate.csv",
                 "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_export_csv_layout(tmp_path):
    cfg = ExperimentConfig.from_dict(_small_doc(runs=1))
    result = run_batch(cfg)
    export(result, tmp_path)
    lines = (tmp_path / "curve_run0.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "evaluation,cost,best_cost"
    assert len(lines) == 1 + 20
    assert lines[1].split(",")[0] == "1"
    # floats are written with enough digits to round-trip exactly
    costs = [float(line.split(",")[1]) for line in lines[1:]]
    np.testing.assert_array_equal(costs, result.runs[0].curve.costs)
    agg = (tmp_path / "aggregate.csv").read_text(encoding="utf-8").splitlines()
    assert agg[0] == "evaluation,median,min,max"
    assert len(agg) == 1 + 20


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
        {"readout": {"p10": 10**400}},  # too large for float64
        *_TOO_LARGE.values(),
    ],
)
def test_cli_validate_rejects_in_one_line(tmp_path, capsys, overrides):
    path = _write_config(tmp_path, {**MINIMAL, **overrides})
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
