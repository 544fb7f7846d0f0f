"""Top-level FPGA accelerator model (Fig. 2(a)).

An :class:`Accelerator` is an ordered set of coarse-grained pipeline stages
plus the clock and capacity of the device.  Two factories build the designs
evaluated in the paper:

* :func:`build_sparse_accelerator` -- the proposed design: three coarse
  stages (MM|At-Sel, At-Comp, FdFwd) over the sparse-attention operator
  graph, with DSPs distributed to balance the per-stage latency at the
  dataset's average sequence length.
* :func:`build_baseline_accelerator` -- the "FPGA baseline" of Fig. 7: the
  same device running dense attention without candidate pre-selection and
  without length-aware scheduling.

The length-aware pipeline simulator (:mod:`repro.scheduling`) drives these
stage latencies; the cross-platform models (:mod:`repro.platforms`) wrap them
into end-to-end throughput numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import config as global_config
from ..operators.encoder_graph import (
    STAGE1_OPERATORS,
    STAGE2_OPERATORS,
    STAGE3_OPERATORS,
    build_dense_encoder_graph,
    build_sparse_encoder_graph,
)
from ..operators.graph import OperatorGraph
from ..transformer.configs import ModelConfig
from .buffers import BufferSizing
from .cycle_model import OperatorCycleModel
from .hbm import HbmModel
from .resources import FpgaResources, U280_SLR0
from .stages import StageHardware, StageOperator

__all__ = [
    "Accelerator",
    "build_sparse_accelerator",
    "build_baseline_accelerator",
    "allocate_matmul_parallelism",
]

#: Default stage names of the proposed three-stage design.
STAGE_NAMES = ("MM|At-Sel", "At-Comp", "FdFwd")

#: Baseline dense design stage grouping (same three-stage structure, dense ops).
_BASELINE_STAGE_GROUPS = (
    ("qkv_linear",),
    ("attention_scores", "scale_mask", "softmax", "attention_context", "attn_output_linear"),
    ("attn_layernorm", "ffn_linear1", "gelu", "ffn_linear2", "ffn_layernorm"),
)

_SPARSE_STAGE_GROUPS = (STAGE1_OPERATORS, STAGE2_OPERATORS, STAGE3_OPERATORS)

#: Stage groupings of the attention-core-only designs used for the Fig. 7(b)
#: attention-throughput measurement (the rest of the encoder is switched off
#: and the device budget serves the attention datapath alone).
_SPARSE_ATTENTION_STAGE_GROUPS = (
    ("qk_quantize", "approx_scores", "topk_select"),
    ("candidate_load", "sparse_scores_exp", "normalize_context"),
)
_BASELINE_ATTENTION_STAGE_GROUPS = (
    ("attention_scores", "scale_mask"),
    ("softmax", "attention_context"),
)
_ATTENTION_STAGE_NAMES = ("At-Sel", "At-Comp")

#: Fraction of the SLR0 DSPs handed to the MatMul datapaths (the remainder
#: covers the fabric operators' DSP usage, platform logic, AXI and control).
_DSP_BUDGET_FRACTION = 0.85

#: Default fabric-lane parallelism of non-matmul operators.
_DEFAULT_FABRIC_LANES = 16

#: On-chip capacity of one inter-stage ping-pong buffer slot.  Full activation
#: tensors of long sequences stream through HBM (the paper stores the Top-k
#: results back to HBM for inter-stage buffering); only a working tile is kept
#: in BRAM.
_MAX_BUFFER_SLOT_BYTES = 96 * 1024


@dataclass
class Accelerator:
    """A configured FPGA design: ordered coarse-grained stages plus device limits."""

    name: str
    model_config: ModelConfig
    stages: list[StageHardware]
    clock_hz: float = global_config.FPGA_CLOCK_HZ
    capacity: FpgaResources = U280_SLR0
    top_k: int | None = None

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------

    def stage_latency_row(self, seq: int) -> tuple[int, ...]:
        """Per-stage latencies as an immutable (memoized) tuple.

        Memoized per instance: the stage hardware is fixed once the factory
        returns, and the schedulers / serving stack ask for the same lengths
        thousands of times per sweep.  (Anything rebuilding a design builds a
        fresh :class:`Accelerator`, so the memo can never go stale.)
        """
        memo = self.__dict__.get("_stage_latency_memo")
        if memo is None:
            memo = {}
            self.__dict__["_stage_latency_memo"] = memo
        row = memo.get(seq)
        if row is None:
            row = tuple(stage.latency_cycles(seq) for stage in self.stages)
            memo[seq] = row
        return row

    def stage_latencies(self, seq: int) -> list[int]:
        """Per-stage latency in cycles for one sequence of length ``seq``."""
        return list(self.stage_latency_row(seq))

    def layer_latency_cycles(self, seq: int) -> int:
        """Latency of one encoder layer when the stages run back to back."""
        return sum(self.stage_latencies(seq))

    def sequence_latency_cycles(self, seq: int) -> int:
        """Non-pipelined latency of a full forward pass for one sequence."""
        return self.model_config.num_layers * self.layer_latency_cycles(seq)

    def bottleneck_stage_cycles(self, seq: int) -> int:
        """Latency of the slowest stage -- the pipeline's steady-state interval."""
        return max(self.stage_latencies(seq))

    def cycles_to_seconds(self, cycles: int) -> float:
        """Convert a cycle count into seconds at the design clock."""
        return cycles / self.clock_hz

    # ------------------------------------------------------------------
    # Resources
    # ------------------------------------------------------------------

    def resources(self) -> FpgaResources:
        """Total resources consumed by every stage (including replication).

        Memoized per instance under the same invariant as
        :meth:`stage_latency_row` (the stage hardware is fixed once the
        factory returns).  :class:`FpgaResources` is frozen, so the cached
        tally is safe to share.
        """
        total = self.__dict__.get("_resources_memo")
        if total is None:
            total = FpgaResources()
            for stage in self.stages:
                total = total + stage.total_resources()
            self.__dict__["_resources_memo"] = total
        return total

    def fits_capacity(self) -> bool:
        """True when the design fits inside the device capacity."""
        return self.resources().fits_within(self.capacity)

    def utilization(self) -> dict[str, float]:
        """Per-resource-class utilization of the device."""
        return self.resources().utilization(self.capacity)

    def peak_ops(self) -> float:
        """Peak 8-bit ops/second of the allocated DSPs (2 ops per MAC)."""
        return 2.0 * self.resources().dsp * self.clock_hz

    def stage_by_name(self, name: str) -> StageHardware:
        """Look up a stage by its label."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named '{name}' in accelerator '{self.name}'")


# ---------------------------------------------------------------------------
# Parallelism allocation helpers
# ---------------------------------------------------------------------------


def allocate_matmul_parallelism(
    graph: OperatorGraph,
    stage_groups: tuple[tuple[str, ...], ...],
    avg_seq: int,
    dsp_budget: int,
) -> dict[str, int]:
    """Distribute ``dsp_budget`` MAC lanes over the graph's matmul operators.

    Every stage is a dataflow pipeline internally (the paper's intra-layer
    coarse-grained pipelining plus loop fusion), so in steady state each
    operator's hardware processes a different row/tile of a different
    sequence concurrently; the pipeline interval is then the latency of the
    slowest *operator*.  That interval is minimized -- and every MAC lane kept
    busy -- by giving each matmul operator a DSP count proportional to its
    arithmetic work at the design's operating sequence length, which is what
    this function does.  Non-matmul operators receive fabric lanes and are
    handled separately.
    """
    matmul_ops = [
        graph.operator(name)
        for group in stage_groups
        for name in group
        if name in graph and graph.operator(name).kind == "matmul"
    ]
    if not matmul_ops:
        return {}

    work = {op.name: max(op.weight(avg_seq), 1) for op in matmul_ops}
    total_work = sum(work.values())

    allocation: dict[str, int] = {}
    for op in matmul_ops:
        share = work[op.name] / total_work
        allocation[op.name] = max(8, int(dsp_budget * share))

    # Trim proportionally if rounding pushed the total above budget.
    used = sum(allocation.values())
    if used > dsp_budget:
        scale = dsp_budget / used
        for name in allocation:
            allocation[name] = max(8, int(allocation[name] * scale))
    return allocation


def _fabric_lane_allocation(
    graph: OperatorGraph,
    stage_groups: tuple[tuple[str, ...], ...],
    sizing_seq: int,
    matmul_parallelism: dict[str, int],
    cycle_model: OperatorCycleModel,
    latency_fraction: float = 0.08,
    max_lanes: int = 1024,
) -> dict[str, int]:
    """Size the fabric parallelism of non-matmul operators.

    Element-wise / softmax / LayerNorm / select / LUT operators are given
    enough lanes that each contributes at most ``latency_fraction`` of the
    slowest matmul-dominated stage latency, so they never become the pipeline
    bottleneck (the paper hides them behind the MM units through loop fusion
    and fine-grained pipelining).  ``sizing_seq`` should be the *maximum*
    sequence length the design must sustain: the pre-selection operators grow
    quadratically with the sequence length, so sizing them at the average
    length would leave the longest sequences bottlenecked on fabric.
    """
    # Slowest stage latency considering matmul operators only.
    stage_latency = 0
    for group in stage_groups:
        cycles = 0
        for name in group:
            if name in graph and name in matmul_parallelism:
                cycles += cycle_model.compute_cycles(
                    graph.operator(name), sizing_seq, matmul_parallelism[name]
                )
        stage_latency = max(stage_latency, cycles)
    target = max(int(stage_latency * latency_fraction), 64)

    lanes: dict[str, int] = {}
    for group in stage_groups:
        for name in group:
            if name not in graph or name in matmul_parallelism:
                continue
            work = max(graph.operator(name).weight(sizing_seq), 1)
            lanes[name] = int(min(max(_DEFAULT_FABRIC_LANES, -(-work // target)), max_lanes))
    return lanes


def _assemble_stages(
    graph: OperatorGraph,
    stage_groups: tuple[tuple[str, ...], ...],
    stage_names: tuple[str, ...],
    model_config: ModelConfig,
    max_seq: int,
    cycle_model: OperatorCycleModel,
    matmul_parallelism: dict[str, int],
    fabric_lanes: dict[str, int],
    intra_pipelined_stages: tuple[int, ...],
) -> list[StageHardware]:
    """Build :class:`StageHardware` objects from the per-operator parallelism."""
    stages: list[StageHardware] = []
    for idx, (names, label) in enumerate(zip(stage_groups, stage_names)):
        stage_ops: list[StageOperator] = []
        for name in names:
            if name not in graph:
                continue
            op = graph.operator(name)
            if op.kind == "matmul":
                parallelism = matmul_parallelism.get(name, 8)
            else:
                parallelism = fabric_lanes.get(name, _DEFAULT_FABRIC_LANES)
            stage_ops.append(StageOperator(operator=op, parallelism=parallelism))
        # Inter-stage double buffer sized for the working activation tile
        # (8-bit activations); anything larger streams through HBM.
        buffer = BufferSizing(
            name=f"{label}-out",
            bytes_per_slot=min(max_seq * model_config.hidden_dim, _MAX_BUFFER_SLOT_BYTES),
        )
        stages.append(
            StageHardware(
                name=label,
                operators=stage_ops,
                cycle_model=cycle_model,
                intra_pipelined=idx in intra_pipelined_stages,
                output_buffer=buffer,
            )
        )
    return stages


def _rebalance_matmul_parallelism(
    graph: OperatorGraph,
    stage_groups: tuple[tuple[str, ...], ...],
    stages: list[StageHardware],
    avg_seq: int,
    dsp_budget: int,
    matmul_parallelism: dict[str, int],
) -> dict[str, int]:
    """One design-space-exploration step: move DSPs toward the slowest stage.

    Each stage's new DSP share is proportional to (current share x current
    measured latency); repeating this fixed-point update equalizes the
    coarse-stage latencies at the operating sequence length -- the objective
    the paper's design-space exploration optimizes ("maximize the hardware
    throughput": the pipeline interval is the slowest stage).  Within a stage
    the budget is spread proportionally to operator work, keeping every MAC
    lane busy under the intra-stage dataflow pipeline.
    """
    stage_latency = [max(stage.latency_cycles(avg_seq), 1) for stage in stages]
    stage_dsp = []
    for group in stage_groups:
        stage_dsp.append(sum(matmul_parallelism.get(name, 0) for name in group))
    scores = [d * t for d, t in zip(stage_dsp, stage_latency)]
    total_score = sum(score for score, d in zip(scores, stage_dsp) if d > 0)
    if total_score <= 0:
        return dict(matmul_parallelism)

    new_allocation: dict[str, int] = {}
    for group, score, dsp in zip(stage_groups, scores, stage_dsp):
        if dsp <= 0:
            continue
        stage_budget = dsp_budget * score / total_score
        matmul_names = [name for name in group if name in matmul_parallelism]
        work = {name: max(graph.operator(name).weight(avg_seq), 1) for name in matmul_names}
        work_total = sum(work.values())
        for name in matmul_names:
            new_allocation[name] = max(8, int(stage_budget * work[name] / work_total))
    return new_allocation


def _build_stages(
    graph: OperatorGraph,
    stage_groups: tuple[tuple[str, ...], ...],
    stage_names: tuple[str, ...],
    model_config: ModelConfig,
    avg_seq: int,
    max_seq: int,
    capacity: FpgaResources,
    hbm: HbmModel,
    intra_pipelined_stages: tuple[int, ...] | None = None,
    balance_iterations: int = 3,
) -> list[StageHardware]:
    """Allocate parallelism and assemble the coarse-grained stages.

    The initial allocation gives each matmul operator DSPs in proportion to
    its work at the operating length (every stage is an internal dataflow
    pipeline, so this keeps all MAC lanes busy); a short fixed-point
    refinement then accounts for fabric-operator latency and memory-bound
    operators by shifting DSPs toward whichever stage is measured slowest --
    the design-space exploration step of Section 5.2.
    """
    if intra_pipelined_stages is None:
        intra_pipelined_stages = tuple(range(len(stage_groups)))
    dsp_budget = int(capacity.dsp * _DSP_BUDGET_FRACTION)
    cycle_model = OperatorCycleModel(hbm=hbm)
    matmul_parallelism = allocate_matmul_parallelism(graph, stage_groups, avg_seq, dsp_budget)

    stages: list[StageHardware] = []
    for _ in range(max(balance_iterations, 1)):
        fabric_lanes = _fabric_lane_allocation(
            graph, stage_groups, max(max_seq, avg_seq), matmul_parallelism, cycle_model
        )
        stages = _assemble_stages(
            graph,
            stage_groups,
            stage_names,
            model_config,
            max_seq,
            cycle_model,
            matmul_parallelism,
            fabric_lanes,
            intra_pipelined_stages,
        )
        matmul_parallelism = _rebalance_matmul_parallelism(
            graph, stage_groups, stages, avg_seq, dsp_budget, matmul_parallelism
        )
    return stages


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------


def _replicated_capacity(capacity: FpgaResources, replication: int) -> FpgaResources:
    """Per-replica capacity when the design is replicated ``replication`` times."""
    if replication < 1:
        raise ValueError("replication must be >= 1")
    if replication == 1:
        return capacity
    return FpgaResources(
        dsp=capacity.dsp // replication,
        bram=capacity.bram // replication,
        lut=capacity.lut // replication,
        ff=capacity.ff // replication,
    )


def build_sparse_accelerator(
    model_config: ModelConfig,
    top_k: int = global_config.DEFAULT_TOP_K,
    avg_seq: int = 128,
    max_seq: int = 512,
    quant_bits: int = global_config.DEFAULT_QK_QUANT_BITS,
    capacity: FpgaResources = U280_SLR0,
    clock_hz: float = global_config.FPGA_CLOCK_HZ,
    hbm: HbmModel | None = None,
    attention_core_only: bool = False,
    replication: int = 1,
) -> Accelerator:
    """Build the proposed three-stage sparse-attention accelerator.

    ``attention_core_only`` builds the design used for the Fig. 7(b)
    attention-throughput measurement: the device budget is dedicated to the
    pre-selection and sparse-attention datapaths (two coarse stages, no
    linear-transformation / feed-forward hardware).

    ``replication`` is Algorithm 1's pipeline replication factor R(G_k, s):
    the whole coarse pipeline is instantiated ``replication`` times, each
    replica built against a proportional share of the device, and the
    scheduler dispatches consecutive sequences to different replicas.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1 (got {top_k})")
    graph = build_sparse_encoder_graph(model_config, top_k=top_k, quant_bits=quant_bits)
    if attention_core_only:
        stage_groups, stage_names = _SPARSE_ATTENTION_STAGE_GROUPS, _ATTENTION_STAGE_NAMES
    else:
        stage_groups, stage_names = _SPARSE_STAGE_GROUPS, STAGE_NAMES
    stages = _build_stages(
        graph,
        stage_groups,
        stage_names,
        model_config,
        avg_seq=avg_seq,
        max_seq=max_seq,
        capacity=_replicated_capacity(capacity, replication),
        hbm=hbm or HbmModel(clock_hz=clock_hz),
    )
    for stage in stages:
        stage.replication = replication
    suffix = "-attention" if attention_core_only else ""
    if replication > 1:
        suffix += f"-x{replication}"
    return Accelerator(
        name=f"sparse-top{top_k}-{model_config.name}{suffix}",
        model_config=model_config,
        stages=stages,
        clock_hz=clock_hz,
        capacity=capacity,
        top_k=top_k,
    )


def build_baseline_accelerator(
    model_config: ModelConfig,
    avg_seq: int = 128,
    max_seq: int = 512,
    capacity: FpgaResources = U280_SLR0,
    clock_hz: float = global_config.FPGA_CLOCK_HZ,
    hbm: HbmModel | None = None,
    attention_core_only: bool = False,
) -> Accelerator:
    """Build the FPGA baseline: dense attention, no length-aware scheduling.

    The baseline occupies the same device and clock but computes the full
    dense score matrix and (as evaluated in Fig. 7) pads every sequence of the
    batch to the maximum length; padding is applied by the scheduler, not
    here.  Because every sequence runs at the padded length, the baseline's
    resource allocation is balanced at ``max_seq``, its actual operating
    point.
    """
    graph = build_dense_encoder_graph(model_config)
    if attention_core_only:
        stage_groups, stage_names = _BASELINE_ATTENTION_STAGE_GROUPS, _ATTENTION_STAGE_NAMES
    else:
        stage_groups, stage_names = _BASELINE_STAGE_GROUPS, STAGE_NAMES
    stages = _build_stages(
        graph,
        stage_groups,
        stage_names,
        model_config,
        avg_seq=max_seq,
        max_seq=max_seq,
        capacity=capacity,
        hbm=hbm or HbmModel(clock_hz=clock_hz),
    )
    suffix = "-attention" if attention_core_only else ""
    return Accelerator(
        name=f"baseline-dense-{model_config.name}{suffix}",
        model_config=model_config,
        stages=stages,
        clock_hz=clock_hz,
        capacity=capacity,
        top_k=None,
    )
