"""Fair grading for randomized exams.

Students and questions live on one latent merit scale; answers are noisy
pairwise comparisons. The `grade` rule reconstructs each student's expected
accuracy over the whole question bank from whatever subset they were asked,
and the simulation harness measures how far any rule's grades drift from
that benchmark.
"""

__version__ = "0.1.0"

from .graph import (
    ComponentStructure,
    ExamResultGraph,
    PairCase,
    ParameterOutOfRangeError,
    Roster,
    TaskAssignmentGraph,
    generate_assignment,
    is_strongly_connected,
    strongly_connected_components,
)
from .grading import (
    GradeVector,
    PredictionMatrix,
    ZeroDegreeStudentError,
    grade,
    make_map_rule,
    per_student_error_bound,
    predict_matrix,
    simple_average,
)
from .model import (
    FitReport,
    MeritVector,
    MissingMeritError,
    NonConvergenceError,
    NotStronglyConnectedError,
    PriorSpec,
    benchmark,
    edge_probabilities,
    likelihood_equation_residual,
    logistic,
    map_fit,
    mle_fit,
    sample_exam_result,
)
from .simulation import (
    BiasReport,
    CvResult,
    ErrorDecomposition,
    InstanceTooLargeError,
    SweepPoint,
    SweepResult,
    cross_validate,
    decompose_error,
    estimate_ex_post_bias,
    simulated_cross_validate,
    sweep_degree,
    sweep_question_sample_size,
    verify_ex_ante_fairness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
