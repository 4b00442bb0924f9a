"""Toolbox for omega-regular acceptance conditions over transition
systems: Zielonka trees, alternating cycle decompositions, parity
transformations, shape-based relabellings and game solving."""

from .core import (AcdkitError, Automaton, BuchiCondition, CapExceeded,
                   CoBuchiCondition, Edge, InputError, Morphism,
                   MullerCondition, ParityCondition, RabinCondition, Run,
                   StreettCondition, TransitionSystem, compose, loop_status,
                   loop_status_over, validate)
from .loops import (Loop, accessible_x_scc, alternating_children,
                    enumerate_reachable_loops, equivalent_over, is_loop,
                    sccs, to_explicit_muller)
from .zielonka import (ZielonkaTree, build_zielonka_tree, build_zt_automaton,
                       closure_oracle, min_parity_automaton_size,
                       min_parity_priority_count, nextbranch,
                       optimal_parity_interval, shape, supp)
from .acd import (ACD, acd_stats, acd_transform, build_acd, induced_morphism,
                  multi_supp, subtree_for_state)
from .morphism import (check_acceptance_preserving, check_local,
                       check_structural, lift_run, map_run)
from .relabel import (classify_acd, compress_priorities, is_weak_k,
                      parity_relabel, rabin_from_acd, streett_from_acd)
from .games import (Game, solve_muller_game, solve_parity_game,
                    verify_parity_solution)
from . import docfmt

__version__ = "0.1.0"
