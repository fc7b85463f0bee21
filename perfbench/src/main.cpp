/**
 * @file
 * perfbench: the repository's benchmark driver.
 *
 *   perfbench --workload campaign|distrib|verify --seed N --seconds S
 *             --trace 0|1 [--trace-file PATH]
 *
 * With --trace 0 the workload is measured for S seconds and the
 * end-to-end metrics are reported; with --trace 1 the traced run
 * reports the per-layer metrics instead. The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 * The binary is also its own distrib worker pool (subprocess workers
 * re-execute it), so main() hands control to maybeRunWorker() first.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "passes/registry.h"
#include "tuner/distrib.h"
#include "workloads.h"

extern char **environ;

// Sanitizer runtimes define these; a weak reference is null otherwise.
extern "C" void __asan_init() __attribute__((weak));
extern "C" void __tsan_init() __attribute__((weak));
extern "C" void __ubsan_handle_add_overflow() __attribute__((weak));

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Outcome;
using perfbench::RunConfig;

/** Knobs that change what the library computes or how much load it
 * puts on the host; a measured run must see none of them. */
const char *const kRefusedKnobs[] = {
    "GSOPT_FAULTS",           "GSOPT_DEADLINE_MS",
    "GSOPT_EXTRA_PASSES",     "GSOPT_DRIVER_CACHE_CAP",
    "GSOPT_NO_CACHE",         "GSOPT_STRICT",
    "GSOPT_RETRY_ATTEMPTS",   "GSOPT_THREADS",
    "GSOPT_DISTRIB_WORKERS",  "GSOPT_LEASE_MS",
};

/** "" when the environment and build are fit to measure. */
std::string
refusal()
{
    for (char **e = environ; e && *e; ++e) {
        const std::string entry = *e;
        const std::string name = entry.substr(0, entry.find('='));
        if (name.rfind("GSOPT_BUDGET_", 0) == 0)
            return name + " is set";
        for (const char *knob : kRefusedKnobs)
            if (name == knob)
                return name + " is set";
    }
#ifndef __OPTIMIZE__
    return "this is an unoptimized build";
#endif
    if (&__asan_init || &__tsan_init || &__ubsan_handle_add_overflow)
        return "this is a sanitizer build";
    return "";
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "campaign|distrib|verify --seed N --seconds S "
                 "--trace 0|1 [--trace-file PATH]\n",
                 why);
    return 2;
}

bool
parseUnsigned(const char *s, uint64_t &out)
{
    if (!s || !*s)
        return false;
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return *end == '\0' && s[0] != '-';
}

} // namespace

int
main(int argc, char **argv)
{
    if (gsopt::tuner::distrib::maybeRunWorker())
        return 0;

    RunConfig cfg;
    uint64_t seconds = 0, trace = 2, seed = 0;
    bool haveSeed = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (!value)
            return usage(("missing value for " + flag).c_str());
        if (flag == "--workload")
            cfg.workload = value;
        else if (flag == "--seed")
            haveSeed = parseUnsigned(value, seed);
        else if (flag == "--seconds") {
            if (!parseUnsigned(value, seconds))
                seconds = 0;
        } else if (flag == "--trace") {
            if (!parseUnsigned(value, trace))
                trace = 2;
        } else if (flag == "--trace-file")
            cfg.traceFile = value;
        else
            return usage(("unknown argument " + flag).c_str());
    }
    if (cfg.workload != "campaign" && cfg.workload != "distrib" &&
        cfg.workload != "verify")
        return usage("unknown or missing --workload");
    if (!haveSeed)
        return usage("--seed must be a non-negative integer");
    if (seconds < 1 || seconds > 3600)
        return usage("--seconds must be a whole number from 1 to 3600");
    if (trace > 1)
        return usage("--trace must be 0 or 1");
    cfg.seed = seed;
    cfg.seconds = static_cast<int>(seconds);

    if (const std::string why = refusal(); !why.empty()) {
        std::fprintf(stderr, "perfbench: refusing to run: %s\n",
                     why.c_str());
        return 3;
    }

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    cfg.threads = std::min(4u, nproc);
    std::printf("host: nproc=%u threads=%u compiler=\"%s\" build=%s "
                "registered_passes=%zu\n",
                nproc, cfg.threads, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                gsopt::passes::PassRegistry::instance().count());
    std::printf("run: workload=%s seed=%llu seconds=%d trace=%llu\n",
                cfg.workload.c_str(), static_cast<unsigned long long>(seed),
                cfg.seconds, static_cast<unsigned long long>(trace));
    std::fflush(stdout);

    int status = 0;
    try {
        Outcome out = trace ? perfbench::runTraced(cfg)
                      : cfg.workload == "campaign" ? perfbench::runCampaign(cfg)
                      : cfg.workload == "distrib"  ? perfbench::runDistrib(cfg)
                                                   : perfbench::runVerify(cfg);
        std::printf("%s\n", out.json().c_str());
        status = out.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: failed: %s\n", e.what());
        status = 1;
    }
    std::error_code ec;
    std::filesystem::remove_all(perfbench::scratchRoot(), ec);
    return status;
}
