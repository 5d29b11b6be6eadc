#pragma once

/**
 * @file
 * Wire-size accounting for the inter-shard RPC messages (the gRPC
 * protocol of Section IV-A). The simulator never moves real bytes
 * between processes; it charges the serialization and transfer cost of
 * exactly the messages the real system would exchange.
 */

#include <cstdint>

#include "elasticrec/common/units.h"

namespace erec::rpc {

/** Fixed protocol overhead per message (HTTP/2 + proto framing). */
inline constexpr Bytes kMessageHeaderBytes = 96;

/**
 * Embedding gather request: the bucketized index and offset arrays for
 * one shard (Figure 11), 4 bytes per element on the wire.
 */
struct GatherRequest
{
    std::uint32_t numIndices = 0;
    std::uint32_t numOffsets = 0;

    Bytes
    wireBytes() const
    {
        return kMessageHeaderBytes +
               Bytes{4} * (numIndices + numOffsets);
    }
};

/**
 * Embedding gather response: one pooled fp32 vector per batch item.
 */
struct GatherResponse
{
    std::uint32_t batch = 0;
    std::uint32_t dim = 0;

    Bytes
    wireBytes() const
    {
        return kMessageHeaderBytes + Bytes{4} * batch * dim;
    }
};

} // namespace erec::rpc
