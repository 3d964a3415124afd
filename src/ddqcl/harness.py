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
    DEFAULT_MAX_CONDITION,
    MAX_FLIP_RATE,
    ConfusionMatrix,
    PerQubitFlipModel,
    apply_channel_sampled,
    calibrate,
    check_dense_width,
    correct,
)
from .sim import MAX_SHOTS, brief, check_integer, check_real, probabilities, sample


class ConfigError(ValueError):
    """Raised for any malformed or inconsistent experiment configuration."""


_TOPOLOGIES = {"line": line_topology, "star": star_topology}
# ExperimentConfig's integer fields, each with its least value
_LEAST = dict(rows=1, cols=1, layers=0, runs=1, budget=1, shots=1, n_ini_multiplier=1, base_seed=0)


def _check_kind(value: object, name: str, kind: type | tuple[type, ...], words: str) -> object:
    """`value`, refused unless it is a `kind`; `words` name the kind in the refusal."""
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be {words}, got {brief(value)}")
    return value


@dataclass(frozen=True)
class ReadoutConfig:
    """Synthetic flip channel settings plus the correction toggle; p01
    defaults to p10.  Each rate is in [0, MAX_FLIP_RATE)."""

    p10: float
    p01: float | None = None
    correction: bool = True
    calibration_shots: int = DEFAULT_CALIBRATION_SHOTS

    def __post_init__(self) -> None:
        try:
            rate = (0, MAX_FLIP_RATE, "[)")
            p10 = check_real(self.p10, "readout.p10", *rate)
            p01 = p10 if self.p01 is None else check_real(self.p01, "readout.p01", *rate)
            shots = check_integer(self.calibration_shots, "readout.calibration_shots", 1, MAX_SHOTS)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        _check_kind(self.correction, "readout.correction", bool, "a boolean")
        for key, value in (("p10", p10), ("p01", p01), ("calibration_shots", shots)):
            object.__setattr__(self, key, value)


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
        if _check_kind(self.topology, "topology", str, "a string") not in _TOPOLOGIES:
            raise ConfigError(
                f"unknown topology {brief(self.topology)}; choose from {sorted(_TOPOLOGIES)}"
            )
        _check_kind(self.exact_mode, "exact_mode", bool, "a boolean")
        _check_kind(self.out_dir, "out_dir", (str, type(None)), "a string or None")
        _check_kind(self.readout, "readout", (ReadoutConfig, type(None)), "a ReadoutConfig or None")
        try:
            # stored as the Python ints the rule returns, which json can write
            for key, low in _LEAST.items():
                high = MAX_SHOTS if key == "shots" else None
                object.__setattr__(self, key, check_integer(getattr(self, key), key, low, high))
            if self.exact_mode and self.readout is not None:
                raise ValueError("readout noise has no effect in exact mode; drop one of the two")
            # building each part validates it: image shape and qubit cap,
            # topology and layers, flip probabilities, solver, budget and sizes
            ansatz = self.build_ansatz()
            channel = self.build_channel()
            n_ini = self.n_ini_multiplier * ansatz.param_count
            check_sizes(self.optimizer_options, ansatz.param_count, n_ini, self.budget)
            if self.readout is not None and self.readout.correction:
                check_dense_width(ansatz.n_qubits)
                # its calibrated estimate may pass, yet correcting would magnify noise ~cond-fold
                if (cond := channel.condition_number) > DEFAULT_MAX_CONDITION:
                    raise ValueError(f"readout channel too ill-conditioned (cond {cond:.3e})")
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
        kind = _check_kind(doc["optimizer"], "optimizer", str, "a string")
        if kind not in SOLVERS:
            raise ConfigError(f"unknown optimizer {brief(kind)}; choose from {sorted(SOLVERS)}")
        option_type = SOLVERS[kind][0]
        options = _read(doc.get("optimizer_options", {}), "optimizer_options", option_type)
        try:
            options = option_type(**options)
        except ValueError as e:  # the option's own name, as the config spells its key
            raise ConfigError(f"optimizer_options.{e}") from e

        readout = doc.get("readout")
        if readout is not None:
            readout = ReadoutConfig(**_read(readout, "readout", ReadoutConfig))
        return cls(optimizer_options=options, readout=readout, **args)

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "optimizer": self.optimizer}


def _read(doc: object, where: str, cls: type, extra: tuple[str, ...] = ()) -> dict:
    """Check the key names of the JSON object `doc` against the fields of `cls`.

    Each field is one key, required when the field has no default; keys in
    `extra` are allowed and left to the caller.  Returns the other keys
    `doc` sets as keyword arguments for `cls`, so the dataclass supplies its
    own defaults and its `__post_init__` checks the values.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(doc).__name__}")
    fields = [f for f in dataclasses.fields(cls) if f.name not in extra]
    allowed = {f.name for f in fields} | set(extra)
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)} (allowed: {sorted(allowed)})")
    prefix = "" if where == "config" else f"{where}."
    for f in fields:
        if f.name not in doc and f.default is dataclasses.MISSING:
            raise ConfigError(f"missing required config key {prefix + f.name!r}")
    return {f.name: doc[f.name] for f in fields if f.name in doc}


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
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {p} is not UTF-8: {e}") from e
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {p} is not valid JSON: {e}") from e
    return ExperimentConfig.from_dict(doc)


# --- batch execution ---


@dataclass(frozen=True, eq=False)  # compares and hashes by identity, as its curve does
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


@dataclass(frozen=True, eq=False)  # compares and hashes by identity, as its runs do
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
    if channel is not None:
        counts = apply_channel_sampled(counts, channel, rng)
    score = qbas_score(counts, patterns)
    model = dist if cfg.exact_mode else histogram_to_distribution(counts)
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
            shots=None if cfg.exact_mode else cfg.shots,
            rng=np.random.default_rng(seed),
            channel=channel,
            confusion=confusion,
        )
        curve = run_solver(ctx, cfg.optimizer_options, n_ini)
        kl, score = _final_metrics(cfg, ansatz, target, curve, seed, channel, confusion)
        results.append(RunResult(seed=seed, curve=curve, kl=kl, qbas=score))
    return BatchResult(cfg, tuple(results), confusion)


# --- export ---


def _write_text(path: Path, text: str) -> Path:
    """Write a sibling temp file and rename it over `path`; returns `path`.
    A failed write leaves `path` as it was and no other file behind."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError as e:
        raise OSError(f"failed writing {path}: {e}") from e
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _write_json(path: Path, doc: dict) -> Path:
    return _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, *columns: np.ndarray) -> Path:
    """`header`, then row j (from 1): j and each column's j-th value to 17 significant digits."""
    rows = (
        ",".join([str(j), *(f"{x:.17g}" for x in values)])
        for j, values in enumerate(zip(*(c.tolist() for c in columns)), 1)
    )
    return _write_text(path, "\n".join([header, *rows]) + "\n")


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
    this batch's and a confusion.json it does not write are deleted; no other
    file in out_dir is touched.

    summary.json is deleted before anything else is written, and written
    last.  So a directory that holds config.json but no summary.json is an
    incomplete batch: an export into it failed part way, and its files may
    mix this batch with an earlier one.
    """
    out = _make_dir(out_dir)
    (out / "summary.json").unlink(missing_ok=True)
    # what an earlier batch with more runs, or with a calibration, left here
    stale = [p for p in out.glob("curve_run*.csv") if _stale_curve(p.name, len(result.runs))]
    if result.confusion is None:
        stale.append(out / "confusion.json")
    for p in stale:
        p.unlink(missing_ok=True)
    curves = [r.curve for r in result.runs]
    written = [
        _write_json(out / "config.json", result.config.to_dict()),
        *(
            _write_csv(
                out / f"curve_run{i}.csv", "evaluation,cost,best_cost", c.costs, c.best_costs
            )
            for i, c in enumerate(curves)
        ),
        _write_csv(out / "aggregate.csv", "evaluation,median,min,max", *aggregate(curves)),
    ]
    if result.confusion is not None:
        written.append(export_confusion(result.confusion, out))
    return [*written, _write_json(out / "summary.json", summary_dict(result))]


def _stale_curve(name: str, runs: int) -> bool:
    """Whether `name` is curve_run<i>.csv, as export spells it, for an i >= runs."""
    m = re.fullmatch(r"curve_run(0|[1-9][0-9]*)\.csv", name)
    return m is not None and int(m.group(1)) >= runs


def export_confusion(m: ConfusionMatrix, out_dir: str | Path) -> Path:
    """Write confusion.json into out_dir; returns its path.

    The document is {"n_qubits": N, "entries": the 4^N entries in row-major
    order}, byte for byte as `_write_json` writes it.  `indent` would send
    the whole list through json's pure-Python encoder, so the entries are
    joined by the newline and indent that `indent=2` puts between them,
    inside the fixed frame of the two keys.  A calibration holds few
    distinct values (332 of 262,144 at 9 qubits), so each distinct bit
    pattern (-0.0 apart from 0.0) is encoded once, by the C encoder on one
    line split at ", ", which no float's repr contains.
    """
    path = _make_dir(out_dir) / "confusion.json"
    values, inverse = np.unique(m.entries.reshape(-1).view(np.int64), return_inverse=True)
    encoded = json.dumps(values.view(np.float64).tolist())[1:-1].split(", ")
    entries = ",\n    ".join(np.array(encoded, dtype=object)[inverse].tolist())
    _write_text(path, f'{{\n  "entries": [\n    {entries}\n  ],\n  "n_qubits": {m.n_qubits}\n}}\n')
    return path
