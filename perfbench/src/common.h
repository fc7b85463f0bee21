/**
 * @file
 * Small helpers shared by the benchmark's workloads: the metric list
 * printed as the result line, order statistics, directory snapshots,
 * MD5 for the golden shard pins, and peak memory.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "corpus/corpus.h"

namespace perfbench {

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Outcome of one benchmark run, printed as the last stdout line. */
struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics; ///< in the order they are reported
    uint64_t mismatches = 0;     ///< correctness failures recorded

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Record a correctness failure (the first 20 go to stderr). */
    void fail(const std::string &why);
    std::string json() const;
};

std::string jsonEscape(const std::string &s);

/** Linear-interpolated quantile (q in [0,1]) of @p v; 0 if empty. */
double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** File name -> bytes for every regular file in @p dir. */
std::map<std::string, std::string> dirBytes(const std::string &dir);

/** First mismatch between two directory snapshots, "" if equal. */
std::string firstDifference(const std::map<std::string, std::string> &a,
                            const std::map<std::string, std::string> &b);

std::string md5Hex(const std::string &data);

/** Return freed heap to the system and restart this process's
 * resident high-water mark from its current resident size (Linux
 * /proc/self/clear_refs). */
void resetPeakRss();

/** This process's resident high-water mark in MiB. */
double selfPeakRssMb();

/** The largest resident high-water mark of any reaped child (distrib
 * workers) in MiB. */
double childPeakRssMb();

/** The corpus in an order drawn from @p seed (Fisher-Yates). */
std::vector<gsopt::corpus::CorpusShader> permutedCorpus(uint64_t seed);

/** A fresh, empty directory under $TMPDIR for this process. */
std::string freshScratchDir(const std::string &tag);

/** The process's scratch root under $TMPDIR (removed at exit). */
const std::string &scratchRoot();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
