"""Query evaluation: Yannakakis, junction trees, hypertrees, baselines."""

from repro.evaluation.stats import EvalStats
from repro.evaluation.backend import (
    BACKENDS,
    backend_name,
    numpy_available,
    set_backend,
)
from repro.evaluation.columnar import ColumnarBindings, ColumnarKernel
from repro.evaluation.kernels import (
    DEFAULT_ENGINE,
    ENGINES,
    TupleKernel,
    make_kernel,
)
from repro.evaluation.relation import (
    Bindings,
    atom_bindings,
    empty,
    join,
    product_extend,
    project,
    project_answer,
    semijoin,
    unit,
)
from repro.evaluation.naive import (
    backtracking_evaluate,
    hom_evaluate,
    naive_join_evaluate,
)
from repro.evaluation.treejoin import tree_join_evaluate
from repro.evaluation.yannakakis import (
    CyclicQueryError,
    atom_join_tree,
    yannakakis_boolean,
    yannakakis_evaluate,
)
from repro.evaluation.treewidth_eval import treewidth_evaluate
from repro.evaluation.hypertree_eval import hypertree_evaluate
from repro.evaluation.engine import (
    AUTO_TREEWIDTH_LIMIT,
    evaluate,
    is_in_answer,
)

__all__ = [
    "AUTO_TREEWIDTH_LIMIT",
    "BACKENDS",
    "Bindings",
    "ColumnarBindings",
    "ColumnarKernel",
    "CyclicQueryError",
    "DEFAULT_ENGINE",
    "ENGINES",
    "EvalStats",
    "TupleKernel",
    "atom_bindings",
    "backend_name",
    "atom_join_tree",
    "backtracking_evaluate",
    "empty",
    "evaluate",
    "hom_evaluate",
    "hypertree_evaluate",
    "is_in_answer",
    "join",
    "make_kernel",
    "naive_join_evaluate",
    "numpy_available",
    "product_extend",
    "project",
    "project_answer",
    "semijoin",
    "set_backend",
    "tree_join_evaluate",
    "treewidth_evaluate",
    "unit",
    "yannakakis_boolean",
    "yannakakis_evaluate",
]
