/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded from the benchmark's own code around each call
 * into a library layer: name, start, end, parent span and a request id
 * (the shader or variant the call serves). Nothing is written while the
 * run is measured; writeChromeTrace() dumps Chrome trace-event JSON at
 * the end, which Perfetto and about:tracing read.
 *
 * A layer's self time is its spans' durations minus the part covered
 * by their child spans. The recorder is single-threaded: the traced run
 * drives every layer from one thread.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic clock in nanoseconds. */
uint64_t nowNs();

class Tracer
{
  public:
    struct Span
    {
        const char *name = nullptr; ///< static string
        uint64_t startNs = 0;
        uint64_t endNs = 0;
        int parent = -1;  ///< span index, -1 for a root span
        int request = -1; ///< index into requests(), -1 for none
        unsigned lane = 0; ///< trace row (distrib worker slot + 1)
    };

    /** Per-name totals: calls, summed duration and summed self time. */
    struct Total
    {
        uint64_t calls = 0;
        uint64_t totalNs = 0;
        uint64_t selfNs = 0;
    };

    /** Id for a request name (a shader or variant), interned. */
    int request(const std::string &name);

    /** Open a span nested in the innermost open span. */
    int open(const char *name, int request);
    void close(int span);

    /** Record a finished span that overlaps others (distrib units run
     * concurrently on worker lanes), outside the nesting stack. */
    void record(const char *name, uint64_t startNs, uint64_t endNs,
                int request, unsigned lane);

    std::map<std::string, Total> totals() const;

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as a Chrome "X" event; @p meta lands in the
     * trace's metadata object. Returns false if the file cannot be
     * written. */
    bool writeChromeTrace(const std::string &path,
                          const std::map<std::string, std::string> &meta)
        const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::vector<std::string> requests_;
    std::map<std::string, int> requestIds_;
};

/** RAII span; a null tracer records nothing (the untraced runs). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, int request = -1)
        : tracer_(tracer),
          id_(tracer ? tracer->open(name, request) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
