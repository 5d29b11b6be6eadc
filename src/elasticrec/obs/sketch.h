#pragma once

/**
 * @file
 * Streaming quantile sketches: the O(1)-per-sample quantile backend of
 * the observability layer (DDSketch-style relative-error buckets).
 *
 * The paper's whole control loop hangs off tail-latency targets (the
 * 400 ms SLA, dense shards scaled at 65% of it), so quantile queries
 * sit directly on the HPA evaluation path. A raw sample store re-sorts
 * every query and keeps every sample; the sketch keeps one counter per
 * logarithmic bucket instead:
 *
 *  - insert is O(1) and allocates nothing once the value range has
 *    been seen (warm-up only grows the contiguous bucket array);
 *  - quantile() is O(buckets) and returns a value within a guaranteed
 *    relative error of the exact sample quantile;
 *  - sketches with the same accuracy merge losslessly, so per-pod
 *    sketches can be folded into a deployment-level sketch that is
 *    bit-identical to one fed the union of the samples.
 *
 * Everything is deterministic: same inserts, same bytes out. NaN
 * samples are dropped and negative samples saturate to zero (latencies
 * cannot be negative), mirroring obs::Histogram::observe.
 *
 * WindowedQuantileSketch adds sliding-window semantics with a ring of
 * time-bucketed sub-sketches: the window is covered by `slices`
 * sub-sketches of window/slices span each; add() retires expired
 * slices in place and quantile() merges the live ones, so the window
 * is honoured at slice granularity (effective span in
 * (window - slice, window]) without storing raw samples.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "elasticrec/common/units.h"

namespace erec::obs {

/**
 * Mergeable log-bucket quantile sketch with bounded relative error.
 *
 * Bucket i counts samples x with gamma^(i-1) < x <= gamma^i where
 * gamma = (1 + alpha) / (1 - alpha); quantile() reports the bucket's
 * log-space midpoint, which is within a factor (1 +/- alpha) of the
 * exact sample quantile.
 */
class QuantileSketch
{
  public:
    /** @param relative_accuracy Bound alpha on the relative error of
     *         quantile(); must be in (0, 1). */
    explicit QuantileSketch(double relative_accuracy = 0.01);

    /**
     * Record one sample. NaN is dropped; negative values (and values
     * below the sketch's resolution floor) count into the exact zero
     * bucket.
     */
    void insert(double x);

    /**
     * Fold another sketch into this one. Both must have been built
     * with the same relative accuracy. Merging per-pod sketches gives
     * exactly the sketch of the concatenated sample streams.
     */
    void merge(const QuantileSketch &other);

    /**
     * Value at quantile q in [0, 1] (nearest-rank over bucket counts),
     * within the configured relative error of the exact sample
     * quantile. Returns 0 when empty.
     */
    double quantile(double q) const;

    std::uint64_t count() const { return count_; }
    /** Sum of recorded samples (negatives saturated to zero). */
    double sum() const { return sum_; }
    /** Mean of recorded samples (0 when empty). */
    double mean() const
    {
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    }
    /**
     * Exact maximum sample seen (not bucket-quantized; negatives
     * saturate to zero like sum()). 0 when empty. Merging takes the
     * max of both sketches, so per-thread sketches report the true
     * tail after folding.
     */
    double maxValue() const { return max_; }
    /** Allocated bucket-array length: stops growing once the value
     *  range has been seen. A probe for sketch_test. */
    std::size_t bucketArraySize() const { return buckets_.size(); }

    void clear();

  private:
    int indexFor(double x) const;
    double valueFor(int index) const;

    double alpha_;
    double gamma_;
    double invLogGamma_;
    /** Log-bucket counters, contiguous; buckets_[k] is bucket index
     *  offset_ + k. */
    std::vector<std::uint64_t> buckets_;
    int offset_ = 0;
    /** Samples at or below the resolution floor (incl. negatives). */
    std::uint64_t zeroCount_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double max_ = 0.0;
};

/**
 * Quantile sketch over a sliding window of simulated time, backed by a
 * ring of time-bucketed QuantileSketch slices: the windowed quantile
 * the SLA-monitoring paths read.
 */
class WindowedQuantileSketch
{
  public:
    /**
     * @param window Sliding-window span.
     * @param slices Ring granularity: the window is covered by this
     *         many sub-sketches (higher = tighter window bound).
     * @param relative_accuracy Per-slice sketch accuracy.
     */
    explicit WindowedQuantileSketch(SimTime window,
                                    std::size_t slices = 6,
                                    double relative_accuracy = 0.01);

    /** Record a sample observed at simulated time t (t >= 0,
     *  non-decreasing across calls for exact windowing). */
    void add(SimTime t, double x);

    /** Quantile over the slices still inside (now - window, now]. */
    double quantile(SimTime now, double q) const;

    /** Samples inside the window as of `now`. */
    std::uint64_t count(SimTime now) const;

    SimTime window() const { return window_; }

  private:
    struct Slice
    {
        /** Time-bucket index this slice currently holds (-1: empty). */
        std::int64_t bucket = -1;
        QuantileSketch sketch;
    };

    bool live(const Slice &s, SimTime now) const;

    SimTime window_;
    SimTime span_; //!< Time covered by one slice.
    double alpha_;
    std::vector<Slice> ring_;
};

} // namespace erec::obs
