#pragma once

/**
 * @file
 * Load-balancing strategies for routing requests across a deployment's
 * ready replicas — the stand-in for the paper's Linkerd layer. Three
 * production policies are provided:
 *
 *  - RoundRobin: classic rotation, oblivious to load.
 *  - LeastLoaded: full scan for the replica with the fewest in-flight
 *    requests (what a service mesh with perfect information would do).
 *  - PowerOfTwoChoices: Linkerd's actual default — sample two random
 *    replicas and pick the less loaded, giving near-optimal balance
 *    at O(1) cost.
 *
 * The balancer is deliberately decoupled from the pod type: callers
 * present candidates as (index, inFlight) pairs and get the chosen
 * index back, which keeps the policy unit-testable in isolation.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "elasticrec/common/rng.h"

namespace erec::cluster {

enum class LbPolicy
{
    RoundRobin,
    LeastLoaded,
    PowerOfTwoChoices,
};

const char *toString(LbPolicy policy);

/** A routable replica: caller-assigned index and current load. */
struct LbCandidate
{
    std::uint32_t index;
    std::uint32_t inFlight;
};

class LoadBalancer
{
  public:
    explicit LoadBalancer(LbPolicy policy, std::uint64_t seed = 1);

    /**
     * Pick one candidate. Returns the chosen candidate's `index`.
     * The candidate list must be non-empty.
     */
    std::uint32_t pick(const std::vector<LbCandidate> &candidates);

  private:
    LbPolicy policy_;
    Rng rng_;
    std::uint64_t rrCursor_ = 0;
};

} // namespace erec::cluster
