#pragma once

/**
 * @file
 * Runtime registry of compute-kernel backends (DESIGN.md §11).
 *
 * The registry is built once per process: `scalar` always registers;
 * `avx2` / `avx512` register only when the translation unit was built
 * with the ISA *and* CPUID reports the host supports it, so one binary
 * serves every machine. Selection order for resolveBackend(""):
 * the ERC_KERNEL_BACKEND environment variable if set, else the widest
 * ISA available. A known-but-unsupported name degrades gracefully to
 * the best available backend (with a warning) instead of failing the
 * stack — an operator pinning `avx512` in a fleet-wide config must not
 * crash the AVX2-only stragglers.
 */

#include <string>
#include <vector>

#include "elasticrec/kernels/kernel_backend.h"

namespace erec::kernels {

/** The scalar reference backend (always registered). The oracle
 *  kernels_test compares every SIMD backend against, byte for byte. */
const KernelBackend &scalarBackend();

/** Backends usable on this host; scalar first, widest ISA last. */
const std::vector<const KernelBackend *> &availableBackends();

/** The widest-ISA backend usable on this host. */
const KernelBackend &bestBackend();

/** Usable backend by name, or nullptr when not usable on this host. */
const KernelBackend *findBackend(const std::string &name);

/**
 * Resolve a configuration string to a backend:
 *  - ""                        -> ERC_KERNEL_BACKEND env var when set,
 *                                 else bestBackend()
 *  - a usable backend name     -> that backend
 *  - a known name whose ISA is
 *    missing on this host      -> bestBackend(), with a logged warning
 *  - anything else             -> ConfigError
 */
const KernelBackend &resolveBackend(const std::string &name = {});

/** resolveBackend("") computed once and cached for the process. */
const KernelBackend &defaultBackend();

namespace detail {

/**
 * Pure name-resolution logic behind resolveBackend, factored out so
 * tests can drive env/host combinations without faking CPUID. `usable`
 * is ordered scalar-first/widest-last; returns the chosen name and
 * raises ConfigError for names outside the known backend set.
 */
std::string resolveName(const std::string &requested, const char *env,
                        const std::vector<std::string> &usable);

} // namespace detail
} // namespace erec::kernels
