// The Cox efficient score statistic (Cox 1972; paper Section II).
//
// Under the marginal null H_0j (SNP j independent of survival), the
// per-patient score contribution is
//
//     U_ij = Δ_i (G_ij − a_ij / b_i),
//     a_ij = Σ_l 1(Y_l >= Y_i) G_lj,    b_i = Σ_l 1(Y_l >= Y_i),
//
// and the marginal score is U_j = Σ_i U_ij. Unlike the Wald and likelihood
// ratio tests it needs no numerical optimization — one pass per SNP.
//
// `CoxScoreContributions` evaluates all U_ij for one SNP in O(n) after the
// O(n log n) RiskSetIndex is built once per analysis; the naive O(n²)
// definition is kept as a test/ablation reference.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/survival.hpp"

namespace ss::stats {

/// Per-patient contributions U_ij for one SNP (fast path).
/// `genotypes[i]` = G_ij in {0, 1, 2} (any non-negative dosage works).
std::vector<double> CoxScoreContributions(const SurvivalData& data,
                                          const RiskSetIndex& index,
                                          const std::vector<std::uint8_t>& genotypes);

/// The SNP-invariant coefficients of the marginal score, for per-patient
/// event weights w (w = Δ for the observed score, w = z∘Δ for a Monte
/// Carlo replicate with multipliers z): Σ_i w_i (G_ij − a_ij/b_i) =
/// Σ_l G_lj V_l for every genotype column, with
///
///     V_l = w_l − Σ_{i: Y_i <= Y_l} w_i / b_i
///
/// (swap the sums). `event_weights` is a patient-major block of `count`
/// weight columns, [l*count + r] = w_lr (0 for a censored patient), and
/// so is the result. One ascending-time pass over the index's sorted
/// order with one running sum per column; tied times enter the sums
/// together, since each is in the others' risk sets. Every column is
/// computed with the same operations whatever `count` is, so a column
/// is bitwise independent of the block it sits in. Σ_l V_l = 0 for every
/// w, as each w_i/b_i is subtracted once for each of the b_i patients at
/// risk at Y_i.
std::vector<double> CoxScoreCoefficients(
    const RiskSetIndex& index, const std::vector<double>& event_weights,
    std::size_t count);

/// Same values computed directly from the definition in O(n^2); reference
/// implementation for tests and the risk-set ablation bench.
std::vector<double> CoxScoreContributionsNaive(
    const SurvivalData& data, const std::vector<std::uint8_t>& genotypes);

/// Marginal score U_j = Σ_i U_ij.
double CoxScoreStatistic(const std::vector<double>& contributions);

/// Null-variance estimate of U_j: V_j = Σ_i U_ij² (the empirical second
/// moment of the contributions; used to standardize for asymptotics).
double CoxScoreVariance(const std::vector<double>& contributions);

}  // namespace ss::stats
