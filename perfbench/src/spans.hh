/**
 * @file
 * The traced run's span log: spans the benchmark records around the
 * public library calls it makes, kept in memory and written out as a
 * Chrome trace when the run ends. Spans of one instance share an id.
 * Begin and end events are appended in the order they happen on the
 * benchmark's single thread, so the log is properly nested by
 * construction.
 *
 * The library's own tracer (support/trace) is not used for these
 * spans: it records process-wide, so turning it on also records the
 * library's spans inside every call. Those include per-solve spans
 * named like the stages here (cp.solve, cp.bounds, cp.greedy) and
 * sampled propagator spans, which on explore (16M nodes) overflow its
 * 65,536-event per-thread buffer and cost time inside the very calls
 * being timed.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/json.hh"

namespace perfbench {

class SpanLog
{
  public:
    using Clock = std::chrono::steady_clock;

    /** RAII span; a null log makes it a no-op. */
    class Scope
    {
      public:
        Scope(SpanLog *log, const char *name, uint64_t id)
            : log_(log), index_(log ? log->begin(name, id) : -1)
        {}
        ~Scope()
        {
            if (log_)
                log_->end(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        int index_;
    };

    /** Summed self time (duration minus child spans) per name, ms. */
    std::map<std::string, double> selfMs() const;

    /** Number of recorded spans. */
    size_t size() const { return spans_.size(); }

    /** The spans as a Chrome trace (one pid, one tid, B/E pairs). */
    hilp::Json chromeTrace() const;

  private:
    struct Span
    {
        std::string name;
        uint64_t id = 0;
        int parent = -1;
        Clock::time_point start;
        Clock::time_point end;
        Clock::duration children{0};
    };
    struct Event
    {
        bool begin = true;
        int span = 0;
    };

    int begin(const char *name, uint64_t id);
    void end(int index);

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::vector<Event> events_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
