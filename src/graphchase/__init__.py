"""Pursuit-evasion on compact metric graphs.

Construct pursuer trajectories on special graph families (stars, combs,
cycles, arbitrary connected graphs at high speed), verify any trajectory
against every unit-speed evader by discretized avoid-set propagation, and
estimate capture-speed frontiers.
"""

from .graph import (GEOM_TOL, DiscretizedGraph, Edge, GraphPoint,
                    GraphValidationError, MetricGraph, build_graph,
                    discretize, double_tree_walk, graph_from_dict,
                    graph_to_dict, load_graph, save_graph, walk_covers,
                    walk_length)
from .trajectory import (PathBuilder, PathValidationError, TimedPath,
                         VariationProfile, check_lipschitz, load_path,
                         min_clearance, path_from_dict, path_pieces,
                         path_to_dict, reparameterize_max_speed, save_path,
                         total_variation, transfer_scale, transfer_shorten,
                         truncate_path, variation_profile)
from .strategies import (ClearanceState, StarSchedule, StrategyError,
                         build_star_schedule, comb_strategy, cycle_loop,
                         cycle_strategy, finiteness_strategy, lambda_root,
                         secure_vertex, simulate_clearance, star_strategy,
                         sufficient_speed, sweep_strategy)
from .verifier import (AvoidSet, ParameterError, ReachStructure,
                       SizeLimitError, StateError, VerifierResult,
                       brute_force_oracle, build_reach, continuous_clearance,
                       extract_witness, initial_avoid_set, min_capture_time,
                       propagate_step, result_to_dict, save_report,
                       swept_intervals, verify)
from .critical import (FAMILIES, EvidenceError, FrontierRow, SpeedBracket,
                       build_family, frontier_table, frontier_to_csv,
                       frontier_to_json, upper_bound_bisect)
from .svg import export_svg, save_svg

__version__ = "1.0.0"
