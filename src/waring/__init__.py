"""Exponent-recursion calculator and verification toolkit for sums of k-th powers."""

from .aux_count import (CountResult, DistinctSums, ExponentFit, Lemma1Report,
                        RepFunction, brute_force_t_pq, distinct_sums_bound,
                        exponent_fit, lemma1_check, rep_function, s_count,
                        t_pq_count)
from .bound_engine import (ExponentTable, GkResult, SigmaData, ThetaSchedule,
                           delta_bound, delta_iterate, gk_bound,
                           lambda_closed, lambda_iterate, solve_sigma,
                           theta_schedule)
from .differences import (BalanceCounts, BalanceGeometry, DiffChain,
                          IntPolynomial, Lemma7Terms, f_i_sum, lemma7_terms,
                          model_counts, psi, psi_chains)
from .errors import (BudgetError, CoprimalityError, DomainError,
                     EmptyWindowError, RootBracketError, WaringError,
                     WidthOverflowError)
from .expsum_arcs import (ArcDissection, ArcMomentResult, DifferenceSum,
                          FullInterval, Major, MomentFactor, MomentSpec,
                          PrimeSmooth, SamplingPolicy, WeylReport, abs_power,
                          arc_moment, classify, eval_at, exact_moment,
                          frequencies, max_frequency, term_count, weyl_ratio)
from .smooth_sets import (PrimeWindow, ResidueProfile, SmoothSet, SmoothSpec,
                          build_multilevel, build_single, build_single_levels,
                          multilevel_spec, primes_in, read_set,
                          residue_profile, size_estimate, window_for_size)

__version__ = "0.1.0"
