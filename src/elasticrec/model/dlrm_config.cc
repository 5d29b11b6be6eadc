#include "elasticrec/model/dlrm_config.h"

#include <algorithm>

#include "elasticrec/common/error.h"

namespace erec::model {

std::uint64_t
DlrmConfig::gathersPerQueryPerTable() const
{
    return static_cast<std::uint64_t>(poolingFactor) * batchSize;
}

std::uint64_t
DlrmConfig::denseFlopsPerQuery() const
{
    const std::uint64_t per_item =
        bottomMlp.flopsPerItem() + topMlp.flopsPerItem() +
        // Interaction: each pair is a dim-wide dot product (2 FLOPs per
        // element).
        2ull * (numTables + 1) * numTables / 2 * embeddingDim;
    return per_item * batchSize;
}

std::uint64_t
DlrmConfig::sparseFlopsPerQuery() const
{
    // Pooling: one addition per gathered element.
    return gathersPerQueryPerTable() * numTables * embeddingDim;
}

double
DlrmConfig::sparseFlopsFraction() const
{
    const double s = static_cast<double>(sparseFlopsPerQuery());
    const double d = static_cast<double>(denseFlopsPerQuery());
    return s / (s + d);
}

Bytes
DlrmConfig::denseParamBytes() const
{
    return bottomMlp.paramBytes() + topMlp.paramBytes();
}

Bytes
DlrmConfig::tableBytes() const
{
    return rowsPerTable * Bytes{embeddingDim} * sizeof(float);
}

Bytes
DlrmConfig::embeddingBytes() const
{
    return tableBytes() * numTables;
}

Bytes
DlrmConfig::totalParamBytes() const
{
    return denseParamBytes() + embeddingBytes();
}

double
DlrmConfig::denseMemoryFraction() const
{
    return static_cast<double>(denseParamBytes()) /
           static_cast<double>(totalParamBytes());
}

double
DlrmConfig::embeddingTouchFraction() const
{
    // Per the paper's argument this is per *inference item*: a pooling
    // factor of ~100 touches about 0.001% of a 20M-row table.
    return std::min(1.0, static_cast<double>(poolingFactor) /
                             static_cast<double>(rowsPerTable));
}

DlrmConfig
rm1()
{
    DlrmConfig c;
    c.name = "RM1";
    c.bottomMlp = MlpSpec{{256, 128, 32}};
    c.topMlp = MlpSpec{{256, 64, 1}};
    c.numTables = 10;
    c.rowsPerTable = 20'000'000;
    c.embeddingDim = 32;
    c.poolingFactor = 128;
    c.localityP = 0.90;
    return c;
}

DlrmConfig
rm2()
{
    DlrmConfig c;
    c.name = "RM2";
    c.bottomMlp = MlpSpec{{256, 128, 32}};
    c.topMlp = MlpSpec{{512, 128, 1}};
    c.numTables = 32;
    c.rowsPerTable = 20'000'000;
    c.embeddingDim = 32;
    c.poolingFactor = 128;
    c.localityP = 0.90;
    return c;
}

DlrmConfig
rm3()
{
    DlrmConfig c;
    c.name = "RM3";
    c.bottomMlp = MlpSpec{{2560, 512, 32}};
    c.topMlp = MlpSpec{{512, 128, 1}};
    c.numTables = 10;
    c.rowsPerTable = 20'000'000;
    c.embeddingDim = 32;
    c.poolingFactor = 32;
    c.localityP = 0.90;
    return c;
}

std::vector<DlrmConfig>
tableIIModels()
{
    return {rm1(), rm2(), rm3()};
}

double
localityValue(LocalityLevel level)
{
    switch (level) {
      case LocalityLevel::Low: return 0.10;
      case LocalityLevel::Medium: return 0.50;
      case LocalityLevel::High: return 0.90;
    }
    panic("unknown locality level");
}

const char *
toString(MlpSize s)
{
    switch (s) {
      case MlpSize::Light: return "Light";
      case MlpSize::Medium: return "Medium";
      case MlpSize::Heavy: return "Heavy";
    }
    return "?";
}

const char *
toString(LocalityLevel l)
{
    switch (l) {
      case LocalityLevel::Low: return "Low";
      case LocalityLevel::Medium: return "Medium";
      case LocalityLevel::High: return "High";
    }
    return "?";
}

DlrmConfig
microBenchmark(MlpSize mlp, LocalityLevel locality,
               std::uint32_t num_tables)
{
    // Table I: the default configuration is RM1; the MLP variant swaps
    // the bottom/top specs and the locality variant swaps P.
    DlrmConfig c = rm1();
    c.numTables = num_tables;
    switch (mlp) {
      case MlpSize::Light:
        c.bottomMlp = MlpSpec{{64, 32, 32}};
        c.topMlp = MlpSpec{{64, 32, 1}};
        break;
      case MlpSize::Medium:
        c.bottomMlp = MlpSpec{{256, 128, 32}};
        c.topMlp = MlpSpec{{256, 64, 1}};
        break;
      case MlpSize::Heavy:
        c.bottomMlp = MlpSpec{{512, 256, 32}};
        c.topMlp = MlpSpec{{512, 64, 1}};
        break;
    }
    c.localityP = localityValue(locality);
    c.name = std::string("micro-") + toString(mlp) + "-" +
             toString(locality) + "-N" + std::to_string(num_tables);
    return c;
}

} // namespace erec::model
