#pragma once

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library (workload generators, the
 * discrete-event simulator, table initialization) draw from erec::Rng so
 * that every experiment is reproducible from a single seed. The engine is
 * xoshiro256** seeded through SplitMix64, which is fast, high quality and
 * trivially portable.
 */

#include <cstdint>

namespace erec {

/**
 * xoshiro256** PRNG with convenience samplers.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can also be
 * handed to <random> distributions when needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a seed; equal seeds yield equal streams. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit output. */
    result_type operator()() { return next(); }

    /** Next raw 64-bit output. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Exponentially distributed double with the given rate (1/mean). */
    double exponential(double rate);

    /** Standard normal (Box-Muller). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Poisson-distributed count with the given mean. */
    std::uint64_t poisson(double mean);

    /**
     * Derive an independent child stream. Used to give each component
     * (tables, traffic, service jitter) its own stream so adding draws in
     * one place does not perturb another.
     */
    Rng split();

  private:
    std::uint64_t s_[4];
};

} // namespace erec
