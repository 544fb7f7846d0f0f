"""Fig. 7: cross-platform throughput comparison.

Fig. 7(a) compares the end-to-end encoder throughput of CPU, edge GPU, GPU
server, the FPGA baseline and the proposed FPGA design over four
(model, dataset) workloads; Fig. 7(b) repeats the comparison for the
attention core only.  The paper reports all results as speedups of the
proposed design over each platform, aggregated with the geometric mean.

The reproduction samples a batch of sequence lengths per workload (matching
the dataset's Table 1 distribution), evaluates every platform model on the
same batch, and reports the same speedup matrix and geomeans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import config as global_config
from ..datasets.length_distributions import sample_lengths
from ..experiments import ExperimentSpec, cfg_field, register_experiment
from ..experiments.config import ExperimentConfig
from ..metrics.throughput import geomean
from ..platforms.base import PlatformResult
from ..platforms.devices import CPU_GPU_PLATFORMS
from ..platforms.fpga import build_baseline_fpga, build_proposed_fpga
from ..transformer.configs import (
    FIG7_EVALUATION_PAIRS,
    get_dataset_config,
    get_model_config,
)
from .pairs import _validate_pairs
from .report import format_table

__all__ = ["Fig7Config", "Fig7Workload", "Fig7Result"]

#: Default (model, dataset) workloads in the CLI-friendly "model:dataset" form.
_DEFAULT_PAIRS = tuple(f"{model}:{dataset}" for model, dataset in FIG7_EVALUATION_PAIRS)

#: Canonical platform keys used in the speedup tables, in figure order.
PLATFORM_KEYS = ("cpu", "jetson_tx2", "rtx6000", "fpga_baseline")

_PLATFORM_DISPLAY = {
    "cpu": "CPU Xeon Gold 5218",
    "jetson_tx2": "Jetson TX2",
    "rtx6000": "GPU RTX 6000",
    "fpga_baseline": "FPGA baseline",
}


@dataclass
class Fig7Workload:
    """Per-workload latencies and speedups."""

    model: str
    dataset: str
    lengths: list[int]
    proposed: PlatformResult
    baselines: dict[str, PlatformResult] = field(default_factory=dict)

    def speedups(self) -> dict[str, float]:
        """Speedup of the proposed design over each baseline platform."""
        return {
            key: result.latency_seconds / self.proposed.latency_seconds
            for key, result in self.baselines.items()
        }

    def as_row(self) -> dict:
        row = {
            "model": self.model,
            "dataset": self.dataset,
            "batch": len(self.lengths),
            "proposed_latency_ms": round(self.proposed.latency_seconds * 1e3, 3),
            "proposed_equivalent_gops": round(self.proposed.useful_gops, 1),
        }
        for key, speedup in self.speedups().items():
            row[f"speedup_vs_{key}"] = round(speedup, 2)
        return row


@dataclass
class Fig7Result:
    """All workloads of one Fig. 7 panel (end-to-end or attention-only)."""

    panel: str  # "end_to_end" (Fig. 7a) or "attention" (Fig. 7b)
    workloads: list[Fig7Workload]

    def geomean_speedups(self) -> dict[str, float]:
        """Geometric-mean speedup over each platform (the paper's headline numbers)."""
        result: dict[str, float] = {}
        for key in PLATFORM_KEYS:
            values = [w.speedups()[key] for w in self.workloads if key in w.baselines]
            if values:
                result[key] = geomean(values)
        return result

    def paper_geomeans(self) -> dict[str, float]:
        """The geomeans the paper reports for this panel (for side-by-side reports)."""
        if self.panel == "end_to_end":
            return dict(global_config.PAPER_END_TO_END_GEOMEAN_SPEEDUP)
        return dict(global_config.PAPER_ATTENTION_GEOMEAN_SPEEDUP)

    def as_rows(self) -> list[dict]:
        return [w.as_row() for w in self.workloads]

    def to_dict(self) -> dict:
        """Machine-readable form (JSON-ready)."""
        return {
            "panel": self.panel,
            "workloads": self.as_rows(),
            "geomean_speedups": self.geomean_speedups(),
            "paper_geomeans": self.paper_geomeans(),
        }


@dataclass(frozen=True)
class Fig7Config(ExperimentConfig):
    """Configuration shared by the two Fig. 7 panels."""

    pairs: tuple[str, ...] = cfg_field(
        _DEFAULT_PAIRS, help="(model:dataset) workloads to evaluate"
    )
    batch_size: int = cfg_field(
        global_config.DEFAULT_BATCH_SIZE, help="sampled batch size per workload"
    )
    top_k: int = cfg_field(global_config.DEFAULT_TOP_K, help="Top-k budget")
    seed: int = global_config.DEFAULT_SEED

    def validate(self) -> None:
        super().validate()
        if not self.pairs:
            raise ValueError("pairs must not be empty")
        _validate_pairs(self.pairs)


def _evaluate_workload(
    model_key: str,
    dataset_key: str,
    batch_size: int,
    top_k: int,
    seed: int,
    panel: str,
) -> Fig7Workload:
    model_config = get_model_config(model_key)
    dataset_config = get_dataset_config(dataset_key)
    lengths = [int(x) for x in sample_lengths(dataset_config, batch_size, seed=seed)]

    proposed = build_proposed_fpga(model_config, dataset_config, top_k=top_k)
    fpga_baseline = build_baseline_fpga(model_config, dataset_config)

    if panel == "end_to_end":
        proposed_result = proposed.end_to_end(lengths)
        baseline_results = {
            "cpu": CPU_GPU_PLATFORMS[0].end_to_end(model_config, lengths),
            "jetson_tx2": CPU_GPU_PLATFORMS[1].end_to_end(model_config, lengths),
            "rtx6000": CPU_GPU_PLATFORMS[2].end_to_end(model_config, lengths),
            "fpga_baseline": fpga_baseline.end_to_end(lengths),
        }
    elif panel == "attention":
        proposed_result = proposed.attention_only(lengths)
        baseline_results = {
            "cpu": CPU_GPU_PLATFORMS[0].attention_only(model_config, lengths),
            "jetson_tx2": CPU_GPU_PLATFORMS[1].attention_only(model_config, lengths),
            "rtx6000": CPU_GPU_PLATFORMS[2].attention_only(model_config, lengths),
            "fpga_baseline": fpga_baseline.attention_only(lengths),
        }
    else:
        raise ValueError(f"unknown panel '{panel}'")

    return Fig7Workload(
        model=model_config.name,
        dataset=dataset_config.name,
        lengths=lengths,
        proposed=proposed_result,
        baselines=baseline_results,
    )


def _fig7_impl(
    panel: str = "end_to_end",
    pairs=FIG7_EVALUATION_PAIRS,
    batch_size: int = global_config.DEFAULT_BATCH_SIZE,
    top_k: int = global_config.DEFAULT_TOP_K,
    seed: int = global_config.DEFAULT_SEED,
) -> Fig7Result:
    """Run one panel of Fig. 7 over the given (model, dataset) workloads.

    ``panel`` is ``"end_to_end"`` for Fig. 7(a) or ``"attention"`` for
    Fig. 7(b).
    """
    workloads = [
        _evaluate_workload(model_key, dataset_key, batch_size, top_k, seed, panel)
        for model_key, dataset_key in pairs
    ]
    return Fig7Result(panel=panel, workloads=workloads)


def _run_panel(panel: str, config: Fig7Config) -> Fig7Result:
    pairs = [tuple(pair.split(":", 1)) for pair in config.pairs]
    return _fig7_impl(
        panel=panel,
        pairs=pairs,
        batch_size=config.batch_size,
        top_k=config.top_k,
        seed=config.seed,
    )


def _render(result: Fig7Result) -> str:
    title = (
        "Fig. 7(a) - end-to-end speedups"
        if result.panel == "end_to_end"
        else "Fig. 7(b) - attention speedups"
    )
    text = format_table(result.as_rows(), title=title)
    geomeans = result.geomean_speedups()
    paper = result.paper_geomeans()
    text += format_table(
        [
            {"platform": key, "measured geomean": round(value, 1), "paper geomean": paper[key]}
            for key, value in geomeans.items()
        ],
        title="Geometric means",
    )
    return text


SPEC_A = register_experiment(
    ExperimentSpec(
        name="fig7a",
        title="Fig. 7(a) - end-to-end speedups",
        description="end-to-end cross-platform speedups",
        config_cls=Fig7Config,
        run=lambda config: _run_panel("end_to_end", config),
        render=_render,
        order=50,
        include_in_all=True,
    )
)

SPEC_B = register_experiment(
    ExperimentSpec(
        name="fig7b",
        title="Fig. 7(b) - attention-core speedups",
        description="attention-core cross-platform speedups",
        config_cls=Fig7Config,
        run=lambda config: _run_panel("attention", config),
        render=_render,
        order=60,
        include_in_all=True,
    )
)
