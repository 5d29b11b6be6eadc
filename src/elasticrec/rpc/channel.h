#pragma once

/**
 * @file
 * RPC channel cost model: per-call stack overhead, CPU-side
 * serialization throughput and network transfer. Composes a
 * hw::NetworkLink with gRPC-stack constants.
 */

#include "elasticrec/common/units.h"
#include "elasticrec/hw/network.h"

namespace erec::rpc {

class Channel
{
  public:
    /**
     * @param link The node-to-node network link.
     * @param serialization_bytes_per_sec CPU proto encode/decode rate.
     * @param per_call_overhead Fixed gRPC stack latency per call leg.
     */
    Channel(hw::NetworkLink link,
            double serialization_bytes_per_sec = 2e9,
            SimTime per_call_overhead = 150);

    /** One-way latency for a message of the given size. */
    SimTime oneWay(Bytes message_bytes) const;

    /**
     * Full round trip: request out, response back. The remote service
     * time is *not* included; the simulator adds it between legs.
     */
    SimTime roundTrip(Bytes request_bytes, Bytes response_bytes) const;

    const hw::NetworkLink &link() const { return link_; }

  private:
    hw::NetworkLink link_;
    double serBytesPerSec_;
    SimTime perCallOverhead_;
};

} // namespace erec::rpc
