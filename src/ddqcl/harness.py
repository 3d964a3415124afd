"""Batch experiment runner: N seeded training runs per setting, one shared
readout calibration per batch, aggregation across runs, and file export.

Seeding layout, chosen so every artifact is independently recomputable:
run i draws from default_rng(base_seed + i); the batch calibration from
default_rng((base_seed, 1)); the final-metrics sampling for run i from
default_rng((base_seed + i, 2)).
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
import typing
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from .ansatz import Ansatz, Topology, execute, line_topology, star_topology
from .bas import BasSpec, bas_patterns, bas_target_distribution
from .metrics import QbasScore, histogram_to_distribution, kl_divergence, qbas_score
from .optim import MAX_RUN_BYTES, SOLVERS, CostContext, LearningCurve, Options, check_sizes
from .optim import run as run_solver
from .readout import (
    DEFAULT_CALIBRATION_SHOTS,
    ConfusionMatrix,
    PerQubitFlipModel,
    apply_channel_sampled,
    calibrate,
    check_dense_width,
    correct,
)
from .sim import probabilities, sample


class ConfigError(ValueError):
    """Raised for any malformed or inconsistent experiment configuration."""


_TOPOLOGIES = {"line": line_topology, "star": star_topology}


@dataclass(frozen=True)
class ReadoutConfig:
    """Synthetic flip channel settings plus the correction toggle."""

    p10: float
    p01: float
    correction: bool = True
    calibration_shots: int = DEFAULT_CALIBRATION_SHOTS

    def __post_init__(self) -> None:
        if self.calibration_shots < 1:
            raise ConfigError(
                f"readout.calibration_shots must be >= 1, got {self.calibration_shots}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch: dataset, circuit, solver, noise, seeds, output."""

    rows: int
    cols: int
    topology: str
    layers: int
    optimizer_options: Options
    runs: int = 5
    budget: int = 2000
    shots: int = 3000
    n_ini_multiplier: int = 3
    exact_mode: bool = False
    base_seed: int = 0
    out_dir: str | None = None
    readout: ReadoutConfig | None = None

    def __post_init__(self) -> None:
        if self.topology not in _TOPOLOGIES:
            raise ConfigError(
                f"unknown topology {self.topology!r}; choose from {sorted(_TOPOLOGIES)}"
            )
        for key in ("runs", "budget", "shots", "n_ini_multiplier"):
            if (value := getattr(self, key)) < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.exact_mode and self.readout is not None:
            raise ConfigError("readout noise has no effect in exact mode; drop one of the two")
        try:
            # building each part validates it: image shape and qubit cap,
            # topology and layers, flip probabilities, solver, budget and sizes
            ansatz = self.build_ansatz()
            self.build_channel()
            n_ini = self.n_ini_multiplier * ansatz.param_count
            check_sizes(self.optimizer_options, ansatz.param_count, n_ini, self.budget)
            if self.readout is not None and self.readout.correction:
                check_dense_width(ansatz.n_qubits)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        # A batch keeps every run's cost array (8 bytes per evaluation) until
        # export, and export adds three budget-long curves (median, min, max):
        # 8 * budget * (runs + 3) bytes.  The envelopes `aggregate` stacks on
        # the way are freed when it returns and are not counted.
        held = 8 * self.budget * (self.runs + 3)
        if held > MAX_RUN_BYTES:
            raise ConfigError(
                f"a batch of {self.runs} runs of {self.budget} recorded costs, plus its aggregate "
                f"curves, holds {Decimal(held):.3g} bytes; the cap is {MAX_RUN_BYTES} bytes"
            )

    # --- derived objects ---

    @property
    def optimizer(self) -> str:
        """The solver's name, as the config's `optimizer` key spells it."""
        kind = type(self.optimizer_options)
        return next(name for name, (options, _) in SOLVERS.items() if options is kind)

    @property
    def bas(self) -> BasSpec:
        return BasSpec(self.rows, self.cols)

    def build_topology(self) -> Topology:
        return _TOPOLOGIES[self.topology](self.bas.n_qubits)

    def build_ansatz(self) -> Ansatz:
        return Ansatz(self.build_topology(), self.layers)

    def build_channel(self) -> PerQubitFlipModel | None:
        if self.readout is None:
            return None
        return PerQubitFlipModel.uniform(self.bas.n_qubits, self.readout.p10, self.readout.p01)

    # --- JSON round-trip ---

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        args = _read(doc, "config", cls, ("optimizer", "optimizer_options", "readout"))
        if "optimizer" not in doc:
            raise ConfigError("missing required config key 'optimizer'")
        kind = _value("optimizer", doc["optimizer"], (str,))
        if kind not in SOLVERS:
            raise ConfigError(f"unknown optimizer {kind!r}; choose from {sorted(SOLVERS)}")
        option_type = SOLVERS[kind][0]
        options = _read(doc.get("optimizer_options", {}), "optimizer_options", option_type)
        try:
            options = option_type(**options)
        except ValueError as e:
            raise ConfigError(str(e)) from e

        readout = doc.get("readout")
        if readout is not None:
            if isinstance(readout, dict) and "p10" in readout:
                readout = {"p01": readout["p10"], **readout}  # p01 defaults to p10
            readout = ReadoutConfig(**_read(readout, "readout", ReadoutConfig))
        return cls(optimizer_options=options, readout=readout, **args)

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "optimizer": self.optimizer}


# JSON scalar types a config field may declare, as the error messages name them
_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _read(doc: object, where: str, cls: type, extra: tuple[str, ...] = ()) -> dict:
    """Check the JSON object `doc` against the scalar fields of `cls`.

    Each field typed bool, int, float or str (or that or None) is one key,
    required when the field has no default.  Returns the keyword arguments
    for `cls`, holding only the keys `doc` sets, so the dataclass supplies
    its own defaults.  Keys in `extra` are allowed and left to the caller.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(doc).__name__}")
    fields = list(_scalar_fields(cls))
    allowed = {f.name for f, _ in fields} | set(extra)
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)} (allowed: {sorted(allowed)})")
    prefix = "" if where == "config" else f"{where}."
    args = {}
    for f, kinds in fields:
        if f.name in doc:
            args[f.name] = _value(prefix + f.name, doc[f.name], kinds)
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"missing required config key {prefix + f.name!r}")
    return args


def _scalar_fields(cls: type):
    """(field, JSON types) for each field of `cls` that is one config key."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kinds = typing.get_args(hints[f.name]) or (hints[f.name],)  # (T, NoneType) for T | None
        if kinds[0] in _JSON_TYPES:
            yield f, kinds


def _value(key: str, value: object, kinds: tuple[type, ...]):
    """`value` as the first of the JSON types `kinds`, or None when they allow it."""
    if value is None and type(None) in kinds:
        return None
    kind = kinds[0]
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise ConfigError(f"config key {key!r} must be {_JSON_TYPES[kind]}, got {value!r}")
    if kind is float:
        if not -sys.float_info.max <= value <= sys.float_info.max:  # also rejects NaN
            raise ConfigError(f"config key {key!r} must be a finite number, got {value!r}")
        return float(value)
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key it sets twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"config key {key!r} appears twice in one JSON object")
        doc[key] = value
    return doc


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON experiment config file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {p}: {e}") from e
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {p} is not valid JSON: {e}") from e
    return ExperimentConfig.from_dict(doc)


# --- batch execution ---


@dataclass(frozen=True)
class RunResult:
    """Final figures for one training run."""

    seed: int
    curve: LearningCurve
    kl: float
    qbas: QbasScore

    @property
    def evaluations(self) -> int:
        return len(self.curve.costs)

    @property
    def best_js(self) -> float:
        return self.curve.best_cost


@dataclass(frozen=True)
class BatchResult:
    config: ExperimentConfig
    runs: tuple[RunResult, ...]
    confusion: ConfusionMatrix | None


def aggregate(curves: list[LearningCurve]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise (median, min, max) of best-cost-so-far across runs."""
    if not curves:
        raise ValueError("need at least one curve to aggregate")
    lengths = {len(c.best_costs) for c in curves}
    if len(lengths) > 1:
        raise ValueError(f"curves have unequal lengths {sorted(lengths)}")
    stack = np.stack([c.best_costs for c in curves])
    return (
        np.median(stack, axis=0),
        np.min(stack, axis=0),
        np.max(stack, axis=0),
    )


def _final_metrics(
    cfg: ExperimentConfig,
    ansatz: Ansatz,
    target: np.ndarray,
    curve: LearningCurve,
    seed: int,
    channel: PerQubitFlipModel | None,
    confusion: ConfusionMatrix | None,
) -> tuple[float, QbasScore]:
    """Reported KL and qBAS of the best model, on its own metrics RNG stream.

    qBAS scores the actual read-out samples (after the channel, before
    correction); KL scores the processed model distribution the training
    pipeline would hand to the cost.
    """
    patterns = bas_patterns(cfg.bas)
    dist = probabilities(execute(ansatz, curve.best_params))
    rng = np.random.default_rng((seed, 2))
    counts = sample(dist, cfg.shots, rng)
    if cfg.exact_mode:
        return kl_divergence(target, dist), qbas_score(counts, patterns)
    if channel is not None:
        counts = apply_channel_sampled(counts, channel, rng)
    score = qbas_score(counts, patterns)
    model = histogram_to_distribution(counts)
    if confusion is not None:
        model = correct(model, confusion)
    return kl_divergence(target, model), score


def calibrate_readout(cfg: ExperimentConfig) -> ConfusionMatrix:
    """The batch's confusion matrix, drawn from default_rng((base_seed, 1))."""
    if cfg.readout is None:
        raise ConfigError("calibrate needs a readout section in the config")
    rng = np.random.default_rng((cfg.base_seed, 1))
    return calibrate(cfg.build_channel(), cfg.readout.calibration_shots, rng)


def run_batch(cfg: ExperimentConfig) -> BatchResult:
    """Calibrate once (when correcting), then train `runs` seeded models."""
    ansatz = cfg.build_ansatz()
    target = bas_target_distribution(cfg.bas)
    channel = cfg.build_channel()
    confusion = None
    if cfg.readout is not None and cfg.readout.correction:
        confusion = calibrate_readout(cfg)
    n_ini = cfg.n_ini_multiplier * ansatz.param_count
    results = []
    for i in range(cfg.runs):
        seed = cfg.base_seed + i
        ctx = CostContext.for_circuit(
            ansatz,
            target,
            budget=cfg.budget,
            shots=cfg.shots,
            rng=np.random.default_rng(seed),
            exact_mode=cfg.exact_mode,
            channel=channel,
            confusion=confusion,
        )
        curve = run_solver(ctx, cfg.optimizer_options, n_ini)
        kl, score = _final_metrics(cfg, ansatz, target, curve, seed, channel, confusion)
        results.append(RunResult(seed=seed, curve=curve, kl=kl, qbas=score))
    return BatchResult(cfg, tuple(results), confusion)


# --- export ---


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: Path, text: str) -> None:
    """Write a sibling temp file and rename it over `path`: a failed write leaves
    `path` as it was and no other file behind."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError as e:
        raise OSError(f"failed writing {path}: {e}") from e
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: Path, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _make_dir(out_dir: str | Path) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise OSError(f"cannot create output directory {out}: {e}") from e
    return out


def summary_dict(result: BatchResult) -> dict:
    """The summary.json document: per-run figures plus batch counters."""
    cfg = result.config
    runs = []
    for r in result.runs:
        runs.append(
            {
                "seed": r.seed,
                "evaluations": r.evaluations,
                "shots_per_evaluation": 0 if cfg.exact_mode else cfg.shots,
                "best_js": r.best_js,
                "kl": r.kl,
                "qbas_precision": r.qbas.precision,
                "qbas_recall": r.qbas.recall,
                "qbas_f1": r.qbas.f1,
                "improvement_evaluations": r.curve.improvements.tolist(),
                "best_params": r.curve.best_params.tolist(),
                "final_params": r.curve.final_params.tolist(),
            }
        )
    best_js = [r.best_js for r in result.runs]
    kls = [r.kl for r in result.runs]
    batch = {
        "runs": cfg.runs,
        "total_evaluations": sum(r.evaluations for r in result.runs),
        "best_js": min(best_js),
        "median_best_js": float(np.median(best_js)),
        "best_kl": min(kls),
        "median_kl": float(np.median(kls)),
        "best_qbas_f1": max(r.qbas.f1 for r in result.runs),
        "calibration": None
        if result.confusion is None
        else {
            "experiments": 2 ** result.confusion.n_qubits,
            "shots_per_experiment": cfg.readout.calibration_shots,
        },
    }
    return {"runs": runs, "batch": batch}


def export(result: BatchResult, out_dir: str | Path) -> list[Path]:
    """Write the batch to disk; returns the created file paths.

    Layout: config.json echo, curve_run<i>.csv per run, aggregate.csv,
    summary.json, and confusion.json when a calibration was used.  UTF-8,
    LF endings, floats at 17 significant digits.  The curves of runs beyond
    this batch's and a confusion.json it did not write are deleted; no other
    file in out_dir is touched.
    """
    out = _make_dir(out_dir)
    written = []

    path = out / "config.json"
    _write_json(path, result.config.to_dict())
    written.append(path)

    for i, r in enumerate(result.runs):
        path = out / f"curve_run{i}.csv"
        lines = ["evaluation,cost,best_cost"]
        for j, (c, b) in enumerate(zip(r.curve.costs, r.curve.best_costs)):
            lines.append(f"{j + 1},{_fmt(c)},{_fmt(b)}")
        _write_text(path, "\n".join(lines) + "\n")
        written.append(path)

    path = out / "aggregate.csv"
    lines = ["evaluation,median,min,max"]
    med, lo, hi = aggregate([r.curve for r in result.runs])
    for j in range(len(med)):
        lines.append(f"{j + 1},{_fmt(med[j])},{_fmt(lo[j])},{_fmt(hi[j])}")
    _write_text(path, "\n".join(lines) + "\n")
    written.append(path)

    path = out / "summary.json"
    _write_json(path, summary_dict(result))
    written.append(path)

    if result.confusion is not None:
        written.append(export_confusion(result.confusion, out))

    # what an earlier batch with more runs, or with a calibration, left here
    stale = [p for p in out.glob("curve_run*.csv") if _stale_curve(p.name, len(result.runs))]
    if result.confusion is None:
        stale.append(out / "confusion.json")
    for p in stale:
        p.unlink(missing_ok=True)
    return written


def _stale_curve(name: str, runs: int) -> bool:
    """Whether `name` is curve_run<i>.csv, as export spells it, for an i >= runs."""
    m = re.fullmatch(r"curve_run(0|[1-9][0-9]*)\.csv", name)
    return m is not None and int(m.group(1)) >= runs


def export_confusion(m: ConfusionMatrix, out_dir: str | Path) -> Path:
    """Write confusion.json into out_dir; returns its path.

    The document is {"n_qubits": N, "entries": the 4^N entries in row-major
    order}, byte for byte as `_write_json` writes it.  `indent` would send
    the whole list through json's pure-Python encoder, so the entries are
    encoded on one line by the C encoder instead, and each ", " between two
    of them (no float's repr contains one) becomes the newline and indent
    that `indent=2` puts there, inside the fixed frame of the two keys.
    """
    path = _make_dir(out_dir) / "confusion.json"
    entries = json.dumps(m.entries.reshape(-1).tolist())[1:-1].replace(", ", ",\n    ")
    _write_text(path, f'{{\n  "entries": [\n    {entries}\n  ],\n  "n_qubits": {m.n_qubits}\n}}\n')
    return path
