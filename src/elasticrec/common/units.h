#pragma once

/**
 * @file
 * Basic unit types and constants shared across all ElasticRec modules.
 *
 * Simulated time is kept in integer microseconds so that discrete-event
 * ordering is exact and runs are bit-reproducible. Memory sizes are kept
 * in bytes as unsigned 64-bit integers.
 */

#include <cstdint>
#include <string>

namespace erec {

/** Simulated time, in microseconds since simulation start. */
using SimTime = std::int64_t;

/** Memory size in bytes. */
using Bytes = std::uint64_t;

namespace units {

// Time constants, expressed in SimTime ticks (microseconds).
inline constexpr SimTime kMicrosecond = 1;
inline constexpr SimTime kMillisecond = 1000;
inline constexpr SimTime kSecond = 1000 * 1000;
inline constexpr SimTime kMinute = 60 * kSecond;

// Memory size constants.
inline constexpr Bytes kKiB = 1024ull;
inline constexpr Bytes kMiB = 1024ull * kKiB;
inline constexpr Bytes kGiB = 1024ull * kMiB;

/** Convert a SimTime to floating-point seconds. */
inline double
toSeconds(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

/** Convert a SimTime to floating-point milliseconds. */
inline double
toMillis(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

/** Convert floating-point seconds to a SimTime, rounding to nearest tick. */
inline SimTime
fromSeconds(double s)
{
    return static_cast<SimTime>(s * static_cast<double>(kSecond) + 0.5);
}

/** Convert a byte count to floating-point GiB. */
inline double
toGiB(Bytes b)
{
    return static_cast<double>(b) / static_cast<double>(kGiB);
}

/** Convert a byte count to floating-point MiB. */
inline double
toMiB(Bytes b)
{
    return static_cast<double>(b) / static_cast<double>(kMiB);
}

/**
 * Render a byte count with a human-friendly suffix, e.g. "2.5 GiB".
 */
std::string formatBytes(Bytes b);

} // namespace units
} // namespace erec
