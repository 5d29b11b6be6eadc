#include "elasticrec/rpc/channel.h"

#include "elasticrec/common/error.h"

namespace erec::rpc {

namespace {

/** Time to stream `bytes` at `bytes_per_sec`, rounded to a tick. */
SimTime
streamTime(Bytes bytes, double bytes_per_sec)
{
    const double s = static_cast<double>(bytes) / bytes_per_sec;
    return static_cast<SimTime>(s * 1e6 + 0.5);
}

} // namespace

Channel::Channel(const hw::NodeSpec &node)
    : bandwidth_(node.netBandwidth), baseLatency_(node.netBaseLatency)
{
    ERC_CHECK(bandwidth_ > 0, "link bandwidth must be positive");
    ERC_CHECK(baseLatency_ >= 0, "base latency must be non-negative");
}

SimTime
Channel::oneWay(Bytes message_bytes) const
{
    return kPerCallOverhead +
           streamTime(message_bytes, kSerializationBytesPerSec) +
           baseLatency_ + streamTime(message_bytes, bandwidth_);
}

} // namespace erec::rpc
