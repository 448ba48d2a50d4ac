"""semiforge: validated instruction-code pairs from judge-style corpora.

The pipeline ingests APPS/CodeContest-shaped archives, asks an LLM to
rewrite each solution into an instruction, refined code, answer type
and test inputs, derives expected outputs by executing the original
code, keeps refined code only when it passes every derived case,
deduplicates instructions by ROUGE-L, and emits records in a
difficulty-ranked (or ablation) order. A pass@k harness shares the
same sandbox.
"""

from .corpus import (
    Problem,
    Solution,
    cap_solutions,
    filter_problems,
    load_corpus,
    merge_duplicate_problems,
)
from .curriculum import OrderingStrategy, order_records, rank_by_difficulty, select_scale
from .dataset import (
    DatasetRecord,
    FunnelStats,
    Provenance,
    emit_jsonl,
    funnel_report,
)
from .errors import SemiforgeError
from .executor import (
    ExecResult,
    ExecStatus,
    Invocation,
    ResourceLimits,
    execute,
    normalize_output,
    outputs_match,
)
from .generation import (
    AnswerType,
    Completion,
    CompletionRequest,
    GenerationBundle,
    LiveClient,
    PromptTemplate,
    ReplayClient,
    build_generation_prompt,
    complete,
    parse_components,
)
from .lcs import lcs_length
from .metrics import EvalProblem, PassAtKReport, evaluate_candidates, pass_at_k
from .pipeline import PipelineConfig, StageFailure, load_config, run_pipeline
from .validation import (
    TestCase,
    ValidatedSample,
    Verdict,
    construct_test_cases,
    dedup_instructions,
    rouge_l,
    validate_refined_code,
)

__version__ = "0.1.0"

__all__ = [
    "AnswerType",
    "Completion",
    "CompletionRequest",
    "DatasetRecord",
    "EvalProblem",
    "ExecResult",
    "ExecStatus",
    "FunnelStats",
    "GenerationBundle",
    "Invocation",
    "LiveClient",
    "OrderingStrategy",
    "PassAtKReport",
    "PipelineConfig",
    "Problem",
    "PromptTemplate",
    "Provenance",
    "ReplayClient",
    "ResourceLimits",
    "SemiforgeError",
    "Solution",
    "StageFailure",
    "TestCase",
    "ValidatedSample",
    "Verdict",
    "build_generation_prompt",
    "cap_solutions",
    "complete",
    "construct_test_cases",
    "dedup_instructions",
    "emit_jsonl",
    "evaluate_candidates",
    "execute",
    "filter_problems",
    "funnel_report",
    "lcs_length",
    "load_config",
    "load_corpus",
    "merge_duplicate_problems",
    "normalize_output",
    "order_records",
    "outputs_match",
    "parse_components",
    "pass_at_k",
    "rank_by_difficulty",
    "rouge_l",
    "run_pipeline",
    "select_scale",
    "validate_refined_code",
]
