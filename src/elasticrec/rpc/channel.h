#pragma once

/**
 * @file
 * RPC channel cost model: per-call gRPC stack overhead, CPU-side
 * serialization throughput and the node-to-node network link (a fixed
 * one-way base latency plus a size-proportional transfer). This is the
 * source of ElasticRec's reported 31 ms / 60 ms added latency.
 */

#include "elasticrec/common/units.h"
#include "elasticrec/hw/platform.h"

namespace erec::rpc {

class Channel
{
  public:
    /** CPU proto encode/decode rate (bytes/sec). */
    static constexpr double kSerializationBytesPerSec = 2e9;
    /** Fixed gRPC stack latency per call leg. */
    static constexpr SimTime kPerCallOverhead = 150;

    /**
     * A channel between two nodes of this kind, over the node's NIC
     * bandwidth and one-way base latency. Throws ConfigError unless
     * the bandwidth is positive and the base latency non-negative.
     */
    explicit Channel(const hw::NodeSpec &node);

    /**
     * One-way latency for a message of the given size: per-call
     * overhead + serialization + base latency + transfer, each stream
     * term rounded to a tick on its own. The remote service time is
     * not included; the simulator adds it between legs.
     */
    SimTime oneWay(Bytes message_bytes) const;

  private:
    double bandwidth_;
    SimTime baseLatency_;
};

} // namespace erec::rpc
