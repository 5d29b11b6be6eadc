#include "elasticrec/obs/flight_recorder.h"

#include "elasticrec/common/error.h"

namespace erec::obs {

namespace {

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/** Process-unique key for the calling thread (never reused, unlike
 *  std::thread::id, so ring ownership can't alias across joins). */
std::uint64_t
threadKey()
{
    static std::atomic<std::uint64_t> next{1};
    thread_local const std::uint64_t key =
        next.fetch_add(1, std::memory_order_relaxed);
    return key;
}

/** Per-thread cache of the last (recorder, ring) pairing, so the
 *  steady-path record() is a compare + SPSC push. Validated against
 *  the recorder's unique id: a destroyed recorder's id is never
 *  reissued, so a stale cache can only miss, never alias. */
struct RingCache
{
    std::uint64_t owner = 0;
    SpanRing *ring = nullptr;
};

thread_local RingCache t_ringCache;

std::uint64_t
nextRecorderId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

SpanRing::SpanRing(std::size_t capacity)
    : slots_(roundUpPow2(capacity == 0 ? 1 : capacity)),
      mask_(slots_.size() - 1)
{}

bool
SpanRing::tryPush(const SpanEvent &event) noexcept
{
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= slots_.size()) {
        drops_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    slots_[head & mask_] = event;
    head_.store(head + 1, std::memory_order_release);
    return true;
}

std::size_t
SpanRing::drainInto(std::vector<SpanEvent> *out)
{
    ERC_ASSERT(out != nullptr, "drainInto() needs an output vector");
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::size_t n = static_cast<std::size_t>(head - tail);
    out->reserve(out->size() + n);
    while (tail != head) {
        out->push_back(slots_[tail & mask_]);
        ++tail;
    }
    tail_.store(tail, std::memory_order_release);
    return n;
}

FlightRecorder::FlightRecorder(const FlightRecorderOptions &options)
    : options_(options),
      id_(nextRecorderId()),
      epoch_(std::chrono::steady_clock::now())
{}

TraceContext
FlightRecorder::maybeStartTrace()
{
    if (options_.sampleEvery == 0)
        return {};
    const std::uint64_t n =
        submitted_.fetch_add(1, std::memory_order_relaxed);
    if (n % options_.sampleEvery != 0)
        return {};
    return {n + 1, kRootSpanId};
}

void
FlightRecorder::registerThisThread()
{
    if (!enabled())
        return;
    acquireRing();
}

ERC_HOT_PATH_ALLOW("ring registration slow path: runs once per thread, pre-triggered by registerThisThread() at worker startup before any AllocGate observes the steady loop")
SpanRing *
FlightRecorder::acquireRing()
{
    const std::uint64_t key = threadKey();
    std::lock_guard<std::mutex> lock(registryMu_);
    auto it = ringByThread_.find(key);
    if (it == ringByThread_.end()) {
        rings_.push_back(
            std::make_unique<SpanRing>(options_.ringCapacity));
        it = ringByThread_.emplace(key, rings_.size() - 1).first;
    }
    SpanRing *ring = rings_[it->second].get();
    t_ringCache = {id_, ring};
    return ring;
}

void
FlightRecorder::record(const SpanEvent &event) noexcept
{
    SpanRing *ring = t_ringCache.owner == id_ ? t_ringCache.ring
                                              : acquireRing();
    ring->tryPush(event);
}

std::int64_t
FlightRecorder::nowUs() const noexcept
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::vector<SpanEvent>
FlightRecorder::drain()
{
    std::vector<SpanEvent> out;
    std::lock_guard<std::mutex> lock(registryMu_);
    for (const auto &ring : rings_)
        ring->drainInto(&out);
    return out;
}

std::uint64_t
FlightRecorder::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(registryMu_);
    std::uint64_t total = 0;
    for (const auto &ring : rings_)
        total += ring->drops();
    return total;
}

} // namespace erec::obs
