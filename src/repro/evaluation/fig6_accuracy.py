"""Fig. 6: accuracy of Top-k sparse attention across models and datasets.

The paper sweeps k in {10, 20, 30, 40, 50} over ten (model, dataset) pairs
and reports the task metric of each sparse configuration next to the dense
baseline; the headline claims are that Top-30 loses less than 2% on every
pair while Top-10 degrades noticeably.

Reproduction protocol (see DESIGN.md Section 5): each pair is instantiated as
a synthetic proxy task labelled by the dense-attention teacher model, and the
sparse variants are scored against those labels.  The dense baseline
therefore scores 100 by construction and the *drop* of each Top-k setting is
the quantity comparable with the paper.  Models are architecturally scaled
down by default (``reduced=True``) so the NumPy forward passes stay
affordable; the full-size architectures can be requested for offline runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import config as global_config
from ..core.sparse_attention import make_sparse_attention_impl
from ..datasets.tasks import build_proxy_task, evaluate_model_on_task
from ..experiments import ExperimentSpec, cfg_field, register_experiment
from ..experiments.config import ExperimentConfig
from ..transformer.configs import (
    FIG6_EVALUATION_PAIRS,
    ModelConfig,
    get_dataset_config,
    get_model_config,
)
from .pairs import _validate_pairs
from ..transformer.model import TransformerModel
from .report import format_key_values, format_table

__all__ = [
    "Fig6Config",
    "Fig6PairResult",
    "Fig6Result",
    "reduced_config",
]

#: Default (model, dataset) pairs in the CLI-friendly "model:dataset" form.
_DEFAULT_PAIRS = tuple(f"{model}:{dataset}" for model, dataset in FIG6_EVALUATION_PAIRS)


def reduced_config(config: ModelConfig, vocab_size: int = 8192) -> ModelConfig:
    """Architecturally scaled-down version of a model (same family proportions).

    Depth is divided by ~3 and width by 4 while keeping the relative ordering
    of the four models (DistilBERT < BERT-base/RoBERTa < BERT-large), so the
    accuracy-vs-k *shape* is preserved at a fraction of the compute.
    """
    hidden = max(config.hidden_dim // 4, 64)
    heads = max(config.num_heads // 3, 2)
    while hidden % heads != 0:
        heads -= 1
    return ModelConfig(
        name=f"{config.name}-reduced",
        num_layers=max(config.num_layers // 3, 2),
        hidden_dim=hidden,
        num_heads=heads,
        vocab_size=vocab_size,
        max_position=512,
    )


@dataclass
class Fig6PairResult:
    """Accuracy sweep of one (model, dataset) pair."""

    model: str
    dataset: str
    metric: str
    baseline_score: float
    scores_by_k: dict[int, float] = field(default_factory=dict)

    def drop(self, k: int) -> float:
        """Accuracy drop (percentage points) of the Top-k setting vs the baseline."""
        return self.baseline_score - self.scores_by_k[k]

    def as_row(self) -> dict:
        row = {
            "model": self.model,
            "dataset": self.dataset,
            "metric": self.metric,
            "baseline": round(self.baseline_score, 2),
        }
        for k in sorted(self.scores_by_k, reverse=True):
            row[f"top{k}"] = round(self.scores_by_k[k], 2)
            row[f"top{k}_drop"] = round(self.drop(k), 2)
        return row


@dataclass
class Fig6Result:
    """All pairs of the Fig. 6 sweep."""

    pairs: list[Fig6PairResult]
    top_k_values: tuple[int, ...]

    def average_drop(self, k: int) -> float:
        """Mean accuracy drop across pairs at a given k."""
        if not self.pairs:
            raise ValueError("no pairs evaluated")
        return float(np.mean([pair.drop(k) for pair in self.pairs]))

    def max_drop(self, k: int) -> float:
        """Worst-case accuracy drop across pairs at a given k."""
        if not self.pairs:
            raise ValueError("no pairs evaluated")
        return float(np.max([pair.drop(k) for pair in self.pairs]))

    def as_rows(self) -> list[dict]:
        return [pair.as_row() for pair in self.pairs]

    def to_dict(self) -> dict:
        """Machine-readable form (JSON-ready; dict keys are strings)."""
        return {
            "top_k_values": list(self.top_k_values),
            "pairs": [
                {
                    "model": pair.model,
                    "dataset": pair.dataset,
                    "metric": pair.metric,
                    "baseline_score": pair.baseline_score,
                    "scores_by_k": {str(k): v for k, v in pair.scores_by_k.items()},
                    "drops_by_k": {str(k): pair.drop(k) for k in pair.scores_by_k},
                }
                for pair in self.pairs
            ],
            "average_drop_by_k": {
                str(k): self.average_drop(k) for k in self.top_k_values
            },
            "max_drop_by_k": {str(k): self.max_drop(k) for k in self.top_k_values},
        }


@dataclass(frozen=True)
class Fig6Config(ExperimentConfig):
    """Configuration of the Fig. 6 Top-k accuracy sweep."""

    pairs: tuple[str, ...] = cfg_field(
        _DEFAULT_PAIRS, help="(model:dataset) pairs to evaluate"
    )
    top_k_values: tuple[int, ...] = cfg_field(
        global_config.TOP_K_SWEEP, help="Top-k budgets to sweep"
    )
    # The CLI defaults match the pre-registry `repro fig6` flags (4 examples,
    # 96-token cap), not the heavier library defaults of `_fig6_impl`.
    examples: int = cfg_field(4, help="proxy-corpus size per pair")
    max_length: int = cfg_field(96, help="sequence-length cap of the proxy corpus")
    quant_bits: int = cfg_field(1, help="Q/K quantization bit width")
    reduced: bool = cfg_field(True, help="use architecturally scaled-down models")
    seed: int = global_config.DEFAULT_SEED

    def validate(self) -> None:
        super().validate()
        if not self.pairs:
            raise ValueError("pairs must not be empty")
        if not self.top_k_values:
            raise ValueError("top_k_values must not be empty")
        _validate_pairs(self.pairs)


def _fig6_impl(
    pairs=FIG6_EVALUATION_PAIRS,
    top_k_values: tuple[int, ...] = global_config.TOP_K_SWEEP,
    num_examples: int = 8,
    max_length_cap: int = 128,
    quant_bits: int = 1,
    reduced: bool = True,
    seed: int = global_config.DEFAULT_SEED,
) -> Fig6Result:
    """Run the Fig. 6 accuracy sweep.

    Parameters
    ----------
    pairs:
        Iterable of ``(model_key, dataset_key)`` pairs (defaults to the ten
        pairs of the paper's figure).
    top_k_values:
        The k sweep (paper: 50, 40, 30, 20, 10).
    num_examples:
        Proxy-corpus size per pair.
    max_length_cap:
        Sequence-length cap applied to the proxy corpus (keeps NumPy
        affordable; the length distribution below the cap is preserved).
    quant_bits:
        Q/K quantization bit width for pre-selection (the paper's accuracy
        study uses 1-bit sign quantization).
    reduced:
        Use architecturally scaled-down models (default) or the full-size
        configurations.
    """
    results: list[Fig6PairResult] = []
    for model_key, dataset_key in pairs:
        model_config = get_model_config(model_key)
        if reduced:
            model_config = reduced_config(model_config)
        dataset_config = get_dataset_config(dataset_key)

        teacher = TransformerModel(model_config, seed=seed)
        task = build_proxy_task(
            dataset_config,
            teacher,
            num_examples=num_examples,
            seed=seed,
            max_length_cap=max_length_cap,
        )
        baseline = evaluate_model_on_task(teacher, task)

        pair_result = Fig6PairResult(
            model=model_config.name,
            dataset=dataset_config.name,
            metric=dataset_config.metric,
            baseline_score=baseline["score"],
        )
        for k in top_k_values:
            sparse_model = teacher.with_attention(
                make_sparse_attention_impl(top_k=k, quant_bits=quant_bits)
            )
            scores = evaluate_model_on_task(sparse_model, task)
            pair_result.scores_by_k[k] = scores["score"]
        results.append(pair_result)

    return Fig6Result(pairs=results, top_k_values=tuple(top_k_values))


def _run_spec(config: Fig6Config) -> Fig6Result:
    pairs = [tuple(pair.split(":", 1)) for pair in config.pairs]
    return _fig6_impl(
        pairs=pairs,
        top_k_values=config.top_k_values,
        num_examples=config.examples,
        max_length_cap=config.max_length,
        quant_bits=config.quant_bits,
        reduced=config.reduced,
        seed=config.seed,
    )


def _render(result: Fig6Result) -> str:
    text = format_table(result.as_rows(), title="Fig. 6 - Top-k sparse attention accuracy")
    text += format_key_values(
        {
            f"average drop @ Top-{k}": round(result.average_drop(k), 2)
            for k in sorted(result.top_k_values, reverse=True)
        }
    )
    return text


SPEC = register_experiment(
    ExperimentSpec(
        name="fig6",
        title="Fig. 6 - Top-k sparse attention accuracy",
        description="Top-k sparse attention accuracy sweep (slow)",
        config_cls=Fig6Config,
        run=_run_spec,
        render=_render,
        order=40,
        include_in_all=False,
    )
)
