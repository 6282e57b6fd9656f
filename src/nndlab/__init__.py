"""nndlab: nearest-neighbor descent over ranking systems, and why it works or fails.

The package has three legs:

* ``ranking``, ``spaces``, ``descent`` — abstract ranking systems, example
  metric spaces, and the friend-exchange descent engine that approximates
  K-nearest-neighbor graphs;
* ``concordance`` — linear orders on point pairs, the concordant systems
  they induce, sup-norm embeddings, and the white graph whose structure
  explains when descent degenerates to quadratic work;
* ``rangequery``, ``diagnostics`` — the second-neighbor range query process
  on a torus Poisson sample with its provably logarithmic schedule, and
  diameter/expansion measurements of the random start graph.
"""

__version__ = "0.1.0"

from .errors import (
    InputError,
    NndlabError,
    NotConcordantError,
    ResourceLimitError,
    ScheduleExhausted,
)
from .ranking import (
    KnnGraph,
    RankTable,
    RankingOracle,
    exact_knn,
    ranking_from_distance_matrix,
    recall,
)
from .descent import (
    FriendState,
    NndResult,
    batch_round,
    default_budget,
    pointwise_pass,
    random_kout,
    run_nnd,
    run_report,
)
from .concordance import (
    Crs,
    EmbeddingMatrix,
    LinearOrder,
    SmallCensus,
    WhiteComponent,
    baranyai_order,
    concordancy_check,
    concordant5_system,
    enumerate_small,
    eulerian_order,
    generic_crs,
    is_isolated,
    linf_embed,
    phi,
    powers_of_two_order,
    verify_embedding,
    white_component,
    white_edge_fraction,
)
from .rangequery import (
    Schedule,
    TwoNrqParams,
    TwoNrqState,
    compute_schedule,
    g_min_overlap,
    init_e0,
    range_query_round,
    run_2nrq,
    solve_next_radius,
    verify_sampling_property,
)
from .diagnostics import (
    DiameterReport,
    ExpansionReport,
    diameter_experiment,
    expansion_check,
    undirected_diameter,
)
