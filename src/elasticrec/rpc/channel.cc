#include "elasticrec/rpc/channel.h"

#include "elasticrec/common/error.h"

namespace erec::rpc {

Channel::Channel(hw::NetworkLink link, double serialization_bytes_per_sec,
                 SimTime per_call_overhead)
    : link_(link), serBytesPerSec_(serialization_bytes_per_sec),
      perCallOverhead_(per_call_overhead)
{
    ERC_CHECK(serialization_bytes_per_sec > 0,
              "serialization rate must be positive");
    ERC_CHECK(per_call_overhead >= 0,
              "per-call overhead must be non-negative");
}

SimTime
Channel::oneWay(Bytes message_bytes) const
{
    const double ser_s =
        static_cast<double>(message_bytes) / serBytesPerSec_;
    return perCallOverhead_ + static_cast<SimTime>(ser_s * 1e6 + 0.5) +
           link_.transferTime(message_bytes);
}

SimTime
Channel::roundTrip(Bytes request_bytes, Bytes response_bytes) const
{
    return oneWay(request_bytes) + oneWay(response_bytes);
}

} // namespace erec::rpc
