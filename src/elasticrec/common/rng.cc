#include "elasticrec/common/rng.h"

#include <cmath>

#include "elasticrec/common/error.h"

namespace erec {

namespace {

/** SplitMix64 step, used for seeding and stream splitting. */
std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    ERC_ASSERT(n > 0, "uniformInt(n) requires n > 0");
    // Lemire-style rejection to avoid modulo bias.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
        std::uint64_t threshold = (-n) % n;
        while (lo < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * n;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    ERC_ASSERT(lo <= hi, "uniformInt(lo, hi) requires lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

double
Rng::exponential(double rate)
{
    ERC_ASSERT(rate > 0, "exponential() requires a positive rate");
    // uniform() can return 0; 1-u is in (0, 1].
    return -std::log(1.0 - uniform()) / rate;
}

double
Rng::normal()
{
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

std::uint64_t
Rng::poisson(double mean)
{
    ERC_ASSERT(mean >= 0, "poisson() requires a non-negative mean");
    if (mean == 0)
        return 0;
    if (mean < 30) {
        // Knuth's product-of-uniforms method.
        const double limit = std::exp(-mean);
        double prod = uniform();
        std::uint64_t n = 0;
        while (prod > limit) {
            prod *= uniform();
            ++n;
        }
        return n;
    }
    // Normal approximation for large means.
    const double x = normal(mean, std::sqrt(mean));
    return x <= 0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

Rng
Rng::split()
{
    return Rng(next());
}

} // namespace erec
