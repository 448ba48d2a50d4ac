"""semiforge: validated instruction-code pairs from judge-style corpora.

The pipeline ingests APPS/CodeContest-shaped archives, asks an LLM to
rewrite each solution into an instruction, refined code, answer type
and test inputs, derives expected outputs by executing the original
code, keeps refined code only when it passes every derived case,
deduplicates instructions by ROUGE-L, and emits records in a
difficulty-ranked (or ablation) order. A pass@k harness shares the
same sandbox.
"""

from .dataset import FunnelStats, funnel_report
from .errors import SemiforgeError
from .metrics import EvalProblem, evaluate_candidates, pass_at_k
from .pipeline import PipelineConfig, StageFailure, load_config, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "EvalProblem",
    "FunnelStats",
    "PipelineConfig",
    "SemiforgeError",
    "StageFailure",
    "evaluate_candidates",
    "funnel_report",
    "load_config",
    "pass_at_k",
    "run_pipeline",
]
