"""Fig. 5: length-aware coarse-grained dynamic pipeline timing diagram.

The worked example of Fig. 5 schedules a batch of five sequences of lengths
140/100/82/78/72 through the three coarse-grained stages.  The reproduction
runs the same batch through the pipeline simulator three ways -- the proposed
length-aware schedule, the padded schedule and a non-pipelined schedule --
and reports the makespans, per-stage utilization, bubble cycles and the
"saved" latency the figure annotates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets.length_distributions import FIG5_EXAMPLE_LENGTHS
from ..experiments import ExperimentSpec, cfg_field, register_experiment
from ..experiments.config import ExperimentConfig
from ..hardware.accelerator import build_sparse_accelerator
from ..scheduling.baselines import PaddedScheduler, SequentialScheduler
from ..scheduling.length_aware import LengthAwareScheduler
from ..scheduling.pipeline import ScheduleResult
from ..transformer.configs import BERT_BASE, MODEL_ZOO, ModelConfig, get_model_config
from .report import format_key_values, format_table

__all__ = ["Fig5Config", "Fig5Result"]


@dataclass
class Fig5Result:
    """Schedules and derived statistics of the Fig. 5 example."""

    model: str
    lengths: list[int]
    length_aware: ScheduleResult
    padded: ScheduleResult
    sequential: ScheduleResult

    @property
    def saved_cycles_vs_sequential(self) -> int:
        """The "saved" annotation of Fig. 5: overlap gain over no pipelining."""
        return self.sequential.makespan_cycles - self.length_aware.makespan_cycles

    @property
    def saved_cycles_vs_padded(self) -> int:
        """Gain of billing actual lengths instead of the batch maximum."""
        return self.padded.makespan_cycles - self.length_aware.makespan_cycles

    @property
    def speedup_vs_sequential(self) -> float:
        return self.length_aware.speedup_over(self.sequential)

    @property
    def speedup_vs_padded(self) -> float:
        return self.length_aware.speedup_over(self.padded)

    def as_rows(self) -> list[dict]:
        """Summary rows (one per schedule) for the report."""
        rows = []
        for result in (self.length_aware, self.padded, self.sequential):
            rows.append(
                {
                    "scheduler": result.scheduler,
                    "makespan_cycles": result.makespan_cycles,
                    "makespan_us": round(result.makespan_seconds * 1e6, 1),
                    "avg_stage_utilization": round(result.average_utilization, 3),
                    "bubble_cycles": result.total_bubble_cycles,
                }
            )
        return rows

    def to_dict(self) -> dict:
        """Machine-readable form (JSON-ready schedule summaries)."""
        return {
            "model": self.model,
            "lengths": list(self.lengths),
            "schedules": self.as_rows(),
            "saved_cycles_vs_sequential": self.saved_cycles_vs_sequential,
            "saved_cycles_vs_padded": self.saved_cycles_vs_padded,
            "speedup_vs_sequential": self.speedup_vs_sequential,
            "speedup_vs_padded": self.speedup_vs_padded,
            "length_aware_utilization": self.length_aware.average_utilization,
        }


@dataclass(frozen=True)
class Fig5Config(ExperimentConfig):
    """Configuration of the Fig. 5 scheduler-comparison experiment."""

    model: str = cfg_field("bert-base", choices=sorted(MODEL_ZOO), help="model zoo key")
    lengths: tuple[int, ...] = cfg_field(
        tuple(FIG5_EXAMPLE_LENGTHS), help="batch sequence lengths"
    )
    num_layers: int | None = cfg_field(
        2, help="encoder stack depth (none keeps the full model)"
    )
    top_k: int = cfg_field(30, help="Top-k sparse attention budget")

    def validate(self) -> None:
        super().validate()
        if not self.lengths:
            raise ValueError("lengths must contain at least one sequence")


def _fig5_impl(
    model_config: ModelConfig = BERT_BASE,
    lengths: tuple[int, ...] = FIG5_EXAMPLE_LENGTHS,
    num_layers_override: int | None = 2,
    top_k: int = 30,
) -> Fig5Result:
    """Run the Fig. 5 example batch through the three schedulers.

    ``num_layers_override`` truncates the encoder stack (Fig. 5 draws two
    encoder layers); ``None`` keeps the full model depth.
    """
    lengths_list = [int(x) for x in lengths]
    if num_layers_override is not None:
        model_config = ModelConfig(
            name=f"{model_config.name}-{num_layers_override}L",
            num_layers=num_layers_override,
            hidden_dim=model_config.hidden_dim,
            num_heads=model_config.num_heads,
            vocab_size=model_config.vocab_size,
        )
    avg_seq = int(sum(lengths_list) / len(lengths_list))
    accelerator = build_sparse_accelerator(
        model_config, top_k=top_k, avg_seq=avg_seq, max_seq=max(lengths_list)
    )
    length_aware = LengthAwareScheduler().schedule(accelerator, lengths_list)
    padded = PaddedScheduler().schedule(accelerator, lengths_list)
    sequential = SequentialScheduler().schedule(accelerator, lengths_list)
    return Fig5Result(
        model=model_config.name,
        lengths=lengths_list,
        length_aware=length_aware,
        padded=padded,
        sequential=sequential,
    )


def _run_spec(config: Fig5Config) -> Fig5Result:
    return _fig5_impl(
        get_model_config(config.model),
        lengths=config.lengths,
        num_layers_override=config.num_layers,
        top_k=config.top_k,
    )


def _render(result: Fig5Result) -> str:
    text = format_table(result.as_rows(), title="Fig. 5 - scheduler comparison (cycles)")
    text += format_key_values(
        {
            "saved vs sequential (cycles)": result.saved_cycles_vs_sequential,
            "saved vs padded (cycles)": result.saved_cycles_vs_padded,
            "length-aware utilization": round(result.length_aware.average_utilization, 3),
        }
    )
    return text


SPEC = register_experiment(
    ExperimentSpec(
        name="fig5",
        title="Fig. 5 - length-aware dynamic pipeline",
        description="length-aware scheduling example",
        config_cls=Fig5Config,
        run=_run_spec,
        render=_render,
        order=30,
        include_in_all=True,
    )
)
