// eQTL-style analysis with a quantitative phenotype — the extension the
// paper's abstract names ("readily extended to analysis of DNA and RNA
// sequencing data, including expression quantitative trait loci (eQTL)
// ... studies").
//
// The phenotype is a simulated gene-expression level driven by a cis
// regulatory SNP plus noise; the analysis runs the same SKAT dataflow with
// the Gaussian score model instead of the Cox model, demonstrating the
// pluggable "Score Statistics (Cox, Binomial, Gaussian, etc.)" layer of
// the paper's Figure 1.
//
//   ./eqtl_study
#include <cmath>
#include <cstdio>

#include "core/record_traits.hpp"
#include "core/sparkscore.hpp"
#include "support/distributions.hpp"

int main() {
  using namespace ss;

  // Genotypes and gene structure from the standard generator.
  simdata::GeneratorConfig config;
  config.num_patients = 400;
  config.num_snps = 1200;
  config.num_sets = 60;
  config.seed = 777;
  const simdata::SyntheticDataset dataset = simdata::Generate(config);

  // Expression phenotype: baseline + per-allele effect of one cis SNP.
  const std::uint32_t cis_gene = 13;
  const std::uint32_t cis_snp = dataset.sets[cis_gene].snps.front();
  const double effect_per_allele = 0.8;
  Rng rng(555);
  stats::QuantitativeData expression;
  expression.value.reserve(config.num_patients);
  for (std::uint32_t i = 0; i < config.num_patients; ++i) {
    const double g = dataset.genotypes.by_snp[cis_snp][i];
    expression.value.push_back(10.0 + effect_per_allele * g +
                               SampleNormal(rng));
  }
  std::printf("eQTL study: %u samples, %u SNPs, %u genes; cis SNP %u in "
              "gene %u, effect %.2f sd/allele\n",
              config.num_patients, config.num_snps, config.num_sets, cis_snp,
              cis_gene, effect_per_allele);

  // Build the pipeline from parts with the Gaussian model.
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(6);
  engine::EngineContext ctx(options);

  std::vector<simdata::SnpRecord> records;
  records.reserve(dataset.genotypes.num_snps());
  for (std::uint32_t j = 0; j < dataset.genotypes.num_snps(); ++j) {
    records.push_back({j, dataset.genotypes.by_snp[j]});
  }
  core::PipelineConfig pipeline_config;
  pipeline_config.seed = 888;
  core::SkatPipeline pipeline(
      ctx, pipeline_config, engine::Parallelize(ctx, records, 8),
      stats::Phenotype::Gaussian(expression), dataset.weights, dataset.sets);

  const core::ResamplingResult result = core::RunResampling(pipeline, {core::ResamplingMethod::kMonteCarlo, 999}).scores;
  std::printf("\n%s\n", core::SummarizeResult(result).c_str());
  std::fputs(core::FormatTopHits(result, 5).c_str(), stdout);

  const bool hit = result.RankedPValues().front().first == cis_gene;
  std::printf("\ncis gene ranked #1: %s (p=%.4f)\n", hit ? "yes" : "NO",
              result.PValue(cis_gene));

  // Contrast: the same expression phenotype dichotomized at the median and
  // analyzed with the Binomial model — the third plug of Figure 1.
  stats::BinaryData high_expression;
  const double median = [&]() {
    std::vector<double> sorted = expression.value;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
  }();
  for (double v : expression.value) {
    high_expression.value.push_back(v > median ? 1 : 0);
  }
  engine::EngineContext ctx2(options);
  core::PipelineConfig binary_config;
  binary_config.seed = 888;
  core::SkatPipeline binary_pipeline(
      ctx2, binary_config, engine::Parallelize(ctx2, records, 8),
      stats::Phenotype::Binomial(high_expression), dataset.weights,
      dataset.sets);
  const core::ResamplingResult binary_result =
      core::RunResampling(binary_pipeline, {core::ResamplingMethod::kMonteCarlo, 499}).scores;
  std::printf("\nBinomial (dichotomized) model: cis gene p=%.4f (power is "
              "lower after dichotomization, as expected)\n",
              binary_result.PValue(cis_gene));
  return hit ? 0 : 1;
}
