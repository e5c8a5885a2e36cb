"""Pursuit-evasion on compact metric graphs.

Construct pursuer trajectories on special graph families (stars, combs,
cycles, arbitrary connected graphs at high speed), verify any trajectory
against every unit-speed evader by a game on a space-time sample grid,
and estimate capture-speed frontiers.
"""

from .graph import (GEOM_TOL, DiscretizedGraph, Edge, GraphPoint,
                    GraphValidationError, MetricGraph, build_graph,
                    discretize, double_tree_walk, graph_from_dict,
                    graph_to_dict, load_graph, save_graph, walk_covers,
                    walk_length)
from .trajectory import (PathBuilder, PathColumns, PathValidationError,
                         TimedPath, check_lipschitz, load_path, min_clearance,
                         path_columns, path_from_dict, path_pieces,
                         path_to_dict, reparameterize_max_speed, save_path,
                         total_variation, transfer_scale, transfer_shorten,
                         truncate_path)
from .strategies import (StarSchedule, StrategyError, build_star_schedule,
                         cascade_truncation, comb_strategy, cycle_loop,
                         cycle_strategy, finiteness_strategy, lambda_root,
                         secure_vertex, star_strategy, sufficient_speed,
                         sweep_strategy)
from .verifier import (Board, GameMismatchError, ParameterError,
                       SizeLimitError, VerifierResult, brute_force_oracle,
                       continuous_clearance, resolution, result_to_dict,
                       save_report, verify)
from .critical import (FAMILIES, EvidenceError, FrontierRow, SpeedBracket,
                       build_family, frontier_table, frontier_to_csv,
                       frontier_to_json, upper_bound_bisect)
from .svg import export_svg, save_svg

__version__ = "1.0.0"
