"""Worst-case survivability of time-varying graphs.

Journey packing (how many failure-spaced copies go through) and disruption
number (how few timed removals cut the pair apart), with greedy
approximations carrying proof-backed certificates, desk-scale exact
oracles, instance generators, a trace-driven loss simulator, and a CLI.
"""

from .tvg import (Contact, DeltaRemoval, InstanceTooLargeError, Journey,
                  TimeVaryingGraph, contacts, interferes, is_valid_journey,
                  load_tvg, reachable, removal_footprint, save_tvg,
                  validate_graph)
from .linegraph import (build_line_graph, min_hop_path, node_disjoint_maxflow,
                        time_expanded_maxflow)
from .maxflow import (FlowResult, exact_maxflow_delta,
                      greedy_bound_certificate, greedy_maxflow_delta)
from .mincut import (CutResult, ExactAnalysis, SurvivabilityVerdict,
                     analyze_exact, delta_cover, exact_mincut_delta,
                     sandwich_check, minweight_mincut_delta, set_weights,
                     survivability_bounds, verify_cut, weighted_mincut_1)
from .generators import (WeightedDigraph, bledp_exact, bledp_expand,
                         gen_counterexample, gen_random_tvg,
                         gen_random_weighted_digraph)
from .simulate import (FailureModel, SimConfig, SimReport, check_sweep,
                       journeys_delivered, run_simulation, sample_failures,
                       sweep, sweep_to_csv)
from .traces import ContactRecord, contact_stats, discretize, parse_contact_trace
from .verify import SUITES, SuiteResult, check_analysis, run_suites

__version__ = "0.1.0"
