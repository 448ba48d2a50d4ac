"""semiforge: validated instruction-code pairs from judge-style corpora.

The pipeline ingests APPS/CodeContest-shaped archives, asks an LLM to
rewrite each solution into an instruction, refined code, answer type
and test inputs, derives expected outputs by executing the original
code, keeps refined code only when it passes every derived case,
deduplicates instructions by ROUGE-L, and emits records in a
difficulty-ranked (or ablation) order. A pass@k harness shares the
same sandbox.

Importing the package loads none of its modules: import the one you
use, such as ``semiforge.pipeline``.
"""

__version__ = "0.1.0"
