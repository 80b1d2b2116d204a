"""The paper's four parallel applications + shared job-queue infrastructure.

Each application provides a sequential reference implementation (the
speed-up denominator) and a DSE-parallel worker to be run with
:func:`repro.dse.run_parallel`.
"""

from .dct2 import (
    DEFAULT_KEEP,
    block_work,
    compress_block,
    dct2_band,
    dct2_block,
    dct2_image_seq,
    dct2_worker,
    dct_matrix,
    idct2_block,
    make_image,
)
from .gauss_seidel import (
    DEFAULT_SWEEPS,
    gauss_seidel_seq,
    gauss_seidel_worker,
    make_system,
    row_partition,
)
from .matmul import make_matrices, matmul_work, matmul_worker
from .workloads import (
    DISTRIBUTIONS,
    dynamic_schedule_worker,
    job_sizes,
    static_schedule_worker,
)
from .jobqueue import (
    collect_results,
    init_job_queue,
    job_queue_layout_words,
    work_job_queue,
)
from .knights_tour import (
    DEFAULT_BOARD,
    DEFAULT_START,
    KnightsTourWorkload,
    TourJob,
    count_tours_seq,
    knight_moves,
    knights_tour_worker,
    knights_tour_workload,
)
from .othello import (
    BLACK,
    EMPTY,
    WHITE,
    OthelloWorkload,
    alphabeta,
    apply_move,
    best_move_seq,
    evaluate,
    initial_board,
    legal_moves,
    midgame_board,
    othello_worker,
    othello_workload,
)

__all__ = [
    "DEFAULT_KEEP",
    "block_work",
    "compress_block",
    "dct2_band",
    "dct2_block",
    "dct2_image_seq",
    "dct2_worker",
    "dct_matrix",
    "idct2_block",
    "make_image",
    "DEFAULT_SWEEPS",
    "gauss_seidel_seq",
    "gauss_seidel_worker",
    "make_system",
    "row_partition",
    "make_matrices",
    "matmul_work",
    "matmul_worker",
    "DISTRIBUTIONS",
    "dynamic_schedule_worker",
    "job_sizes",
    "static_schedule_worker",
    "collect_results",
    "init_job_queue",
    "job_queue_layout_words",
    "work_job_queue",
    "DEFAULT_BOARD",
    "DEFAULT_START",
    "KnightsTourWorkload",
    "TourJob",
    "count_tours_seq",
    "knight_moves",
    "knights_tour_worker",
    "knights_tour_workload",
    "BLACK",
    "EMPTY",
    "WHITE",
    "OthelloWorkload",
    "alphabeta",
    "apply_move",
    "best_move_seq",
    "evaluate",
    "initial_board",
    "legal_moves",
    "midgame_board",
    "othello_worker",
    "othello_workload",
]
