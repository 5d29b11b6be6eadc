#pragma once

/**
 * @file
 * An executable DLRM model (Figure 1): bottom MLP over dense features,
 * embedding gather + pooling over sparse features, pairwise-dot feature
 * interaction, top MLP and a sigmoid click-probability output.
 *
 * This is the reference single-process model: the monolithic baseline
 * serves it whole, while ElasticRec splits exactly this computation
 * across dense/sparse microservice shards. Unit tests assert that the
 * sharded execution path is numerically identical to this model.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "elasticrec/embedding/embedding_table.h"
#include "elasticrec/model/dlrm_config.h"
#include "elasticrec/model/mlp.h"
#include "elasticrec/workload/query_generator.h"

namespace erec::model {

class Dlrm
{
  public:
    /**
     * Build the model. Pass Storage::Virtual for paper-scale tables
     * (hash-synthesized rows); tests use small materialized tables.
     */
    Dlrm(DlrmConfig config,
         embedding::Storage storage = embedding::Storage::Materialized,
         std::uint64_t seed = 42);

    const DlrmConfig &config() const { return config_; }

    std::shared_ptr<const embedding::EmbeddingTable>
    table(std::uint32_t t) const;

    /**
     * Full forward pass. Gathers and GEMMs execute on the given kernel
     * backend (default: the process-wide dispatched one).
     *
     * @param dense_in Batch x bottomMlp.inputDim dense features.
     * @param lookups One SparseLookup per table, each with batch items
     *        matching `batch`.
     * @param batch Number of items.
     * @return Click probabilities, one per item.
     */
    std::vector<float>
    forward(const std::vector<float> &dense_in,
            const std::vector<workload::SparseLookup> &lookups,
            std::size_t batch,
            const kernels::KernelBackend &backend =
                kernels::defaultBackend()) const;

    /**
     * The dense-shard tail computation: takes the bottom-MLP output and
     * the per-table pooled embeddings (each batch x dim) and runs
     * feature interaction + top MLP + sigmoid. Exposed so the
     * microservice dense shard can reuse the exact same code.
     */
    std::vector<float>
    interactAndPredict(const std::vector<float> &bottom_out,
                       const std::vector<std::vector<float>> &pooled,
                       std::size_t batch,
                       const kernels::KernelBackend &backend =
                           kernels::defaultBackend()) const;

    /** Run only the bottom MLP (dense shard head computation). */
    std::vector<float>
    runBottom(const std::vector<float> &dense_in, std::size_t batch,
              const kernels::KernelBackend &backend =
                  kernels::defaultBackend()) const;

    /** Generate a deterministic synthetic dense input for a query id. */
    std::vector<float> syntheticDenseInput(std::uint64_t query_id,
                                           std::size_t batch) const;

  private:
    DlrmConfig config_;
    Mlp bottomMlp_;
    Mlp topMlp_;
    std::vector<std::shared_ptr<const embedding::EmbeddingTable>> tables_;
};

} // namespace erec::model
