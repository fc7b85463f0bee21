/**
 * @file
 * The vendor driver compiler model ("the JIT"). A real GL driver
 * receives GLSL *text* — including all the artefacts an offline
 * source-to-source optimizer baked into it — compiles it with whatever
 * optimizations that vendor ships, allocates registers, and produces a
 * machine binary. This module reproduces that contract:
 *
 *   text -> front end -> vendor pass set (DeviceModel::jitFlags)
 *        -> code generation cost model -> occupancy/spill accounting
 *        -> per-fragment cycle estimate
 *
 * Because the vendor pass set is built from the same pass library as
 * the offline tool, "the JIT already does X" falls out naturally: if
 * the device unrolls on its own, offline unrolling converges to the
 * same IR and measures as a no-op on that device.
 */
#ifndef GSOPT_GPU_DRIVER_H
#define GSOPT_GPU_DRIVER_H

#include <string>

#include "gpu/codegen.h"
#include "gpu/device.h"

namespace gsopt::gpu {

/** The driver's compiled artefact: everything timing needs. */
struct ShaderBinary
{
    CostSummary cost;
    double spilledRegs = 0;     ///< registers beyond the spill threshold
    double occupancyWaves = 0;  ///< waves in flight given live registers
    double texStallCycles = 0;  ///< unhidden texture latency per fragment
    double icacheStallCycles = 0; ///< i-cache pressure penalty
    double cyclesPerFragment = 0; ///< grand total the timer model uses
};

/**
 * Compile GLSL source exactly as the vendor driver would. Throws
 * gsopt::CompileError on invalid source.
 *
 * Compilations are memoised in one process-wide, LRU-bounded cache
 * keyed by source text (its hash) — the real-driver analogue of the GL
 * shader binary cache. Each cached text holds its canonical front-end
 * IR (parse, lower, canonicalize: device-independent, so a campaign
 * compiling one variant on five devices runs it once) and the binaries
 * compiled from it so far, one per device configuration. The device
 * key (deviceModelKey) covers every compilation- and cost-relevant
 * parameter, so ablation studies that tweak a model (e.g. disabling
 * its JIT passes) never alias with the stock model. Thread-safe.
 */
ShaderBinary driverCompile(const std::string &glslSource,
                           const DeviceModel &device);

/** The raw uncached compile path (the cache's fill function). Exposed
 * for benchmarks that need to price a cold compile. */
ShaderBinary driverCompileUncached(const std::string &glslSource,
                                   const DeviceModel &device);

/** Cumulative cache statistics since process start (or last reset). */
struct DriverCacheStats
{
    uint64_t hits = 0;       ///< (text, device) binaries served
    uint64_t misses = 0;     ///< binaries compiled
    uint64_t entries = 0;    ///< cached texts
    uint64_t compileNs = 0;  ///< time spent in uncached fills
    uint64_t evictions = 0;  ///< texts LRU-evicted over the cap
    uint64_t capacity = 0;   ///< current cap in texts (never 0)
};

DriverCacheStats driverCacheStats();

/**
 * Bound the cache to at most @p cap texts, evicting least-recently-
 * used texts (with every device's binary) beyond it. The cache is
 * always bounded: the start-up cap is GSOPT_DRIVER_CACHE_CAP (a
 * malformed or zero value aborts), else 4096 texts, about 5x a full
 * campaign; @p cap 0 restores that start-up cap. Shrinking below the
 * current entry count evicts immediately. Thread-safe.
 */
void setDriverCacheCap(size_t cap);

/** Drop all cached texts and zero the stats (benchmarks only).
 * The configured capacity is config, not a stat: it survives. */
void clearDriverCache();

/** Timing: nanoseconds to shade one full-screen draw (noise-free). */
double drawTimeNs(const ShaderBinary &binary, const DeviceModel &device,
                  long fragments);

} // namespace gsopt::gpu

#endif // GSOPT_GPU_DRIVER_H
