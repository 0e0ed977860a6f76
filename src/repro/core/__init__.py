"""The HyGCN accelerator: engines, coordinator, memory handler, simulator."""

from .config import HyGCNConfig, PipelineMode
from .sparsity import SparsityEliminator, SparsityReport
from .programming_model import EdgeMVMProgram, ExecutionTrace
from .aggregation_engine import AggregationEngine, IntervalAggregation
from .systolic import SystolicArrayModel, SystolicGroupCost
from .combination_engine import CombinationEngine, IntervalCombination
from .coordinator import Coordinator, IntervalTiming, LayerTiming
from .memory_handler import ACCESS_PRIORITY, AccessBatchResult, MemoryAccessHandler
from .stats import LayerReport, SimulationReport
from .simulator import HyGCNSimulator
from .quantization import (
    FixedPointFormat,
    compare_precision,
    dequantize,
    quantization_error,
    quantize,
    quantize_graph,
    quantize_model,
)

__all__ = [
    "HyGCNConfig",
    "PipelineMode",
    "SparsityEliminator",
    "SparsityReport",
    "EdgeMVMProgram",
    "ExecutionTrace",
    "AggregationEngine",
    "IntervalAggregation",
    "SystolicArrayModel",
    "SystolicGroupCost",
    "CombinationEngine",
    "IntervalCombination",
    "Coordinator",
    "IntervalTiming",
    "LayerTiming",
    "ACCESS_PRIORITY",
    "AccessBatchResult",
    "MemoryAccessHandler",
    "LayerReport",
    "SimulationReport",
    "HyGCNSimulator",
    "FixedPointFormat",
    "compare_precision",
    "dequantize",
    "quantization_error",
    "quantize",
    "quantize_graph",
    "quantize_model",
]
