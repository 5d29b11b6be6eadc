#pragma once

/**
 * @file
 * DLRM model configurations: the paper's Table II workloads (RM1, RM2,
 * RM3), the Table I microbenchmark variants, and the analytic FLOP /
 * byte accounting behind Figure 3.
 */

#include <cstdint>
#include <string>

#include "elasticrec/common/units.h"
#include "elasticrec/model/mlp.h"

namespace erec::model {

/** Complete static description of a DLRM workload. */
struct DlrmConfig
{
    std::string name;
    MlpSpec bottomMlp;
    MlpSpec topMlp;
    std::uint32_t numTables = 10;
    std::uint64_t rowsPerTable = 20'000'000;
    std::uint32_t embeddingDim = 32;
    /**
     * Pooling factor: embedding gathers per batch item per table (the
     * paper's "Number of embedding gathers": 128 for RM1/RM2, 32 for
     * RM3). A query batches `batchSize` items, so one query issues
     * poolingFactor x batchSize gathers against every table (the n_t of
     * Algorithm 1).
     */
    std::uint32_t poolingFactor = 128;
    /** Locality metric P (fraction of accesses on the top 10% rows). */
    double localityP = 0.90;
    /** Items ranked per query (input batch size; Section V-C). */
    std::uint32_t batchSize = 32;

    // ------------------------------------------------------------------
    // Derived accounting (architecture-independent, Figure 3(a)).
    // ------------------------------------------------------------------

    /** Gathers per query per table: poolingFactor x batchSize (n_t). */
    std::uint64_t gathersPerQueryPerTable() const;

    /** Dense-layer FLOPs for one query (bottom + interaction + top). */
    std::uint64_t denseFlopsPerQuery() const;

    /** Sparse-layer FLOPs for one query (pooling additions). */
    std::uint64_t sparseFlopsPerQuery() const;

    /** Fraction of model FLOPs spent in sparse layers. */
    double sparseFlopsFraction() const;

    /** Dense parameter bytes (bottom + top MLP). */
    Bytes denseParamBytes() const;

    /** Bytes of one embedding table. */
    Bytes tableBytes() const;

    /** Bytes of all embedding tables. */
    Bytes embeddingBytes() const;

    /** Total model parameter bytes. */
    Bytes totalParamBytes() const;

    /** Fraction of parameter bytes held by dense layers. */
    double denseMemoryFraction() const;

    /**
     * Fraction of embedding parameters touched by one query assuming
     * distinct rows (the paper's "0.001% utility" argument).
     */
    double embeddingTouchFraction() const;
};

/** Table II: RM1 (DLRM-style, 10 tables, 128 gathers). */
DlrmConfig rm1();

/** Table II: RM2 (32 tables, 128 gathers). */
DlrmConfig rm2();

/** Table II: RM3 (heavy MLPs, 32 gathers). */
DlrmConfig rm3();

/** All three Table II workloads in order. */
std::vector<DlrmConfig> tableIIModels();

// ----------------------------------------------------------------------
// Table I microbenchmark variants (defaults derived from RM1).
// ----------------------------------------------------------------------

enum class MlpSize { Light, Medium, Heavy };
enum class LocalityLevel { Low, Medium, High };

/** Table I MLP variant: Light / Medium / Heavy bottom and top MLPs. */
DlrmConfig microBenchmark(MlpSize mlp, LocalityLevel locality,
                          std::uint32_t num_tables = 10);

/** Table I locality parameter value: 10% / 50% / 90%. */
double localityValue(LocalityLevel level);

const char *toString(MlpSize s);
const char *toString(LocalityLevel l);

} // namespace erec::model
