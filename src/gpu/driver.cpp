#include "gpu/driver.h"

#include <algorithm>
#include <cmath>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "emit/offline.h"
#include "passes/passes.h"
#include "support/fault.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/time.h"

namespace gsopt::gpu {

namespace {

/** Cap in texts when GSOPT_DRIVER_CACHE_CAP is unset: about 5x the
 * 839 distinct texts of a full campaign over the 11-pass registry. */
constexpr size_t kDefaultCacheCap = 4096;

/** One cached text: its canonical front-end IR, shared by every
 * device, the binaries compiled from it so far (one per device model
 * key), and its position in the LRU order list. */
struct TextEntry
{
    std::shared_ptr<const ir::Module> canonical;
    std::vector<std::pair<uint64_t, ShaderBinary>> binaries;
    std::list<uint64_t>::iterator lru;

    const ShaderBinary *find(uint64_t deviceKey) const
    {
        for (const auto &[key, bin] : binaries)
            if (key == deviceKey)
                return &bin;
        return nullptr;
    }
};

/** Everything below is guarded by cacheMutex. */
std::mutex cacheMutex;
std::unordered_map<uint64_t, TextEntry> cache;
/** Text keys, front = most recently used. */
std::list<uint64_t> lruOrder;
/** Max texts; seeded from GSOPT_DRIVER_CACHE_CAP once at start-up. */
const size_t startupCap =
    static_cast<size_t>(envUint("GSOPT_DRIVER_CACHE_CAP",
                                kDefaultCacheCap, 1));
size_t cacheCap = startupCap;
uint64_t cacheHits = 0;
uint64_t cacheMisses = 0;
uint64_t cacheCompileNs = 0;
uint64_t cacheEvictions = 0;

/** Evict LRU texts beyond the cap. Caller holds cacheMutex. */
void
evictOverCapLocked()
{
    while (cache.size() > cacheCap) {
        cache.erase(lruOrder.back());
        lruOrder.pop_back();
        ++cacheEvictions;
    }
}

/** The driver's device-independent front end: parse, lower and
 * canonicalize. Every real driver folds constants and CSEs first, so
 * all devices share this result and the vendor passes start after
 * it. */
std::unique_ptr<ir::Module>
frontEnd(const std::string &glslSource)
{
    auto module = emit::compileToIr(glslSource);
    passes::canonicalize(*module);
    return module;
}

/** Vendor pass set + cost model over a canonical module. */
ShaderBinary compileIr(ir::Module &module, const DeviceModel &device);

} // namespace

ShaderBinary
driverCompile(const std::string &glslSource, const DeviceModel &device)
{
    const uint64_t textKey = fnv1a(glslSource);
    const uint64_t deviceKey = deviceModelKey(device);
    std::shared_ptr<const ir::Module> canonical;
    {
        std::lock_guard lock(cacheMutex);
        auto it = cache.find(textKey);
        if (it != cache.end()) {
            TextEntry &entry = it->second;
            lruOrder.splice(lruOrder.begin(), lruOrder, entry.lru);
            if (const ShaderBinary *bin = entry.find(deviceKey)) {
                ++cacheHits;
                return *bin;
            }
            canonical = entry.canonical;
        }
    }
    // Binary miss. Flaky real drivers fail here, on actual compiles —
    // never on a hit — so the fault site guards only this path, even
    // when the text's front end is already cached. The vendor passes
    // run on a clone taken outside the lock; holding the shared_ptr
    // keeps the canonical module alive if the text is evicted
    // meanwhile.
    fault::point("driver.compile", device.name);
    const uint64_t t0 = nowNs();
    if (!canonical)
        canonical = frontEnd(glslSource);
    ShaderBinary bin = compileIr(*canonical->clone(), device);
    const uint64_t ns = nowNs() - t0;
    {
        std::lock_guard lock(cacheMutex);
        ++cacheMisses;
        cacheCompileNs += ns;
        auto [it, inserted] = cache.try_emplace(textKey);
        TextEntry &entry = it->second;
        if (inserted) {
            lruOrder.push_front(textKey);
            entry.lru = lruOrder.begin();
            entry.canonical = std::move(canonical);
        } else {
            lruOrder.splice(lruOrder.begin(), lruOrder, entry.lru);
        }
        // Another thread may have filled this device while we
        // compiled; its binary is identical (deterministic compile).
        if (!entry.find(deviceKey))
            entry.binaries.emplace_back(deviceKey, bin);
        evictOverCapLocked();
    }
    return bin;
}

DriverCacheStats
driverCacheStats()
{
    std::lock_guard lock(cacheMutex);
    return {cacheHits,      cacheMisses, cache.size(), cacheCompileNs,
            cacheEvictions, cacheCap};
}

void
setDriverCacheCap(size_t cap)
{
    std::lock_guard lock(cacheMutex);
    cacheCap = cap == 0 ? startupCap : cap;
    evictOverCapLocked();
}

void
clearDriverCache()
{
    std::lock_guard lock(cacheMutex);
    cache.clear();
    lruOrder.clear();
    cacheHits = 0;
    cacheMisses = 0;
    cacheCompileNs = 0;
    cacheEvictions = 0;
}

ShaderBinary
driverCompileUncached(const std::string &glslSource,
                      const DeviceModel &device)
{
    return compileIr(*frontEnd(glslSource), device);
}

namespace {

ShaderBinary
compileIr(ir::Module &moduleRef, const DeviceModel &device)
{
    ir::Module *module = &moduleRef;

    // Vendor optimization set over the canonical module frontEnd()
    // produced. The flags encode what this vendor's stack can do
    // beyond canonicalize. Structural transforms (unroll, hoist) apply
    // the vendor's own heuristics' budgets — unlike the offline tool's
    // unconditional versions.
    if (device.jitFlags.unroll && device.jitUnrollTrips > 0) {
        passes::unroll(*module, device.jitUnrollTrips,
                       device.jitUnrollInstrs);
        passes::canonicalize(*module);
    }
    if (device.jitFlags.hoist && device.jitHoistArmInstrs > 0) {
        passes::hoist(*module, device.jitHoistArmInstrs);
        passes::canonicalize(*module);
    }
    if (device.jitFlags.coalesce) {
        passes::coalesce(*module);
        passes::canonicalize(*module);
    }
    if (device.jitFlags.reassociate) {
        passes::reassociate(*module);
        passes::canonicalize(*module);
    }
    if (device.jitFlags.gvn) {
        passes::gvn(*module);
        passes::canonicalize(*module);
    }

    // Every vendor back end list-schedules for register pressure before
    // allocation; without this, offline reassociation's end-of-block
    // reduction chains would look impossibly expensive.
    passes::scheduleForPressure(*module, device.schedulerWindow);

    ShaderBinary bin;
    bin.cost = analyzeModule(*module, device);

    // Register allocation: spill anything over the hard threshold.
    bin.spilledRegs =
        std::max(0.0, bin.cost.maxLiveRegs - device.spillThreshold);
    const double spill_cycles = bin.spilledRegs * device.spillCost;

    // Occupancy: the register file supports regBudget live registers
    // per thread at full occupancy; heavier shaders run fewer waves.
    // The allocator spills anything beyond spillThreshold precisely to
    // keep occupancy from collapsing, so the occupancy calculation uses
    // the post-spill register count (the spill traffic is charged
    // above).
    const double resident =
        std::min(bin.cost.maxLiveRegs, device.spillThreshold);
    const double capacity = device.regBudget * device.maxWaves;
    bin.occupancyWaves = std::clamp(
        capacity / std::max(1.0, resident), 1.0, device.maxWaves);

    // Texture latency hiding degrades with occupancy.
    const double hide =
        std::min(1.0, bin.occupancyWaves / device.wavesToHideTex);
    bin.texStallCycles = bin.cost.textureCount * device.texLatency *
                         (1.0 - hide);

    // Instruction-cache pressure (Adreno-style) on code growth.
    const double excess =
        std::max(0.0, static_cast<double>(bin.cost.instructionCount) -
                          device.icacheInstrs);
    bin.icacheStallCycles = excess * device.icachePenalty;

    bin.cyclesPerFragment = device.baseOverheadCycles +
                            bin.cost.issueCycles() + spill_cycles +
                            bin.texStallCycles + bin.icacheStallCycles;
    return bin;
}

} // namespace

double
drawTimeNs(const ShaderBinary &binary, const DeviceModel &device,
           long fragments)
{
    const double throughput =
        static_cast<double>(device.shaderUnits) * device.clockGhz;
    // fragments * cycles / (units * GHz) yields nanoseconds directly.
    return static_cast<double>(fragments) * binary.cyclesPerFragment /
           throughput;
}

} // namespace gsopt::gpu
