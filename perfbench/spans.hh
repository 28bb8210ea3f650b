/**
 * @file
 * In-memory span recorder for the benchmark's traced pass, written
 * out once at exit as Chrome trace-event JSON (open the file in
 * ui.perfetto.dev or chrome://tracing, like the obs/tracer output).
 *
 * Spans are recorded by the benchmark around its own calls into the
 * simulator's layers, never from inside the program. Each span has a
 * name, a start, an end, the span that caused it, and the id of the
 * simulated run it belongs to; several host threads may record at
 * once.
 */

#ifndef MISAR_PERFBENCH_SPANS_HH
#define MISAR_PERFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <iomanip>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    /** Numeric span arguments (counts taken at the same boundary). */
    using Args = std::vector<std::pair<std::string, double>>;

    /** Reserve an id, so children can name a parent not yet closed. */
    std::uint64_t reserve() { return next.fetch_add(1); }

    /**
     * Record the span @p id. Times are host seconds on one steady
     * clock; @p parent is 0 for a root span; @p lane is the host
     * thread that ran it (one timeline row per lane).
     */
    void
    record(std::uint64_t id, std::string name, double start, double end,
           std::uint64_t parent, std::uint64_t run, unsigned lane,
           Args args = {})
    {
        std::lock_guard<std::mutex> g(mu);
        spans.push_back(Span{id, parent, run, lane, std::move(name), start,
                             end, std::move(args)});
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> g(mu);
        return spans.size();
    }

    /** Names of the recorded spans (for the coverage check). */
    std::vector<std::string>
    names() const
    {
        std::lock_guard<std::mutex> g(mu);
        std::vector<std::string> out;
        for (const Span &s : spans)
            out.push_back(s.name);
        return out;
    }

    /**
     * Chrome trace-event JSON: complete ("X") events in microseconds
     * since @p origin, one tid per lane, and the span/parent/run ids
     * in each event's args.
     */
    void
    writeChromeTrace(std::ostream &os, const std::string &process,
                     double origin) const
    {
        std::lock_guard<std::mutex> g(mu);
        // Microsecond timestamps of a minutes-long run need fixed
        // notation to keep sub-microsecond digits.
        os << std::fixed << std::setprecision(3);
        os << "{\"traceEvents\":[";
        os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
              "\"args\":{\"name\":\""
           << process << "\"}}";
        unsigned lanes = 0;
        for (const Span &s : spans)
            lanes = s.lane + 1 > lanes ? s.lane + 1 : lanes;
        for (unsigned l = 0; l < lanes; ++l)
            os << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << l
               << ",\"name\":\"thread_name\",\"args\":{\"name\":\"lane "
               << l << "\"}}";
        for (const Span &s : spans) {
            os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
               << ",\"name\":\"" << s.name << "\",\"ts\":"
               << (s.start - origin) * 1e6
               << ",\"dur\":" << (s.end - s.start) * 1e6
               << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
               << ",\"run\":" << s.run;
            for (const auto &[k, v] : s.args)
                os << ",\"" << k << "\":" << v;
            os << "}}";
        }
        os << "],\"displayTimeUnit\":\"ns\"}\n";
    }

  private:
    struct Span
    {
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t run;
        unsigned lane;
        std::string name;
        double start;
        double end;
        Args args;
    };

    mutable std::mutex mu;
    std::vector<Span> spans; // guarded by mu
    std::atomic<std::uint64_t> next{1};
};

} // namespace perfbench

#endif // MISAR_PERFBENCH_SPANS_HH
