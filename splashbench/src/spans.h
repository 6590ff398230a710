/**
 * @file
 * Span recorder for Splash-Bench's traced run.
 *
 * A span is one timed call: a name whose prefix before the first '.'
 * is the layer it belongs to ("sim.run" is layer sim), a start and an
 * end on the steady clock, the span that was open on the same thread
 * when it started (its parent), and the job id shared by every span
 * of one job.  Spans are kept in memory and written once, at exit, as
 * a Chrome trace (chrome://tracing, Perfetto): one complete event
 * ("ph":"X") per span, with its id, parent and job in "args".
 *
 * Self time is a span's duration minus the time its child spans
 * cover; selfSeconds() computes it per layer.
 */

#ifndef SPLASHBENCH_SPANS_H
#define SPLASHBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace splashbench {

struct Span
{
    std::string name;
    std::string job; ///< job id; empty outside a job
    int id = 0;
    int parent = -1; ///< -1 for a root span
    int thread = 0;  ///< recording thread, in order of first use
    std::int64_t startNs = 0;
    std::int64_t endNs = -1; ///< -1 while the span is open

    double seconds() const { return 1e-9 * double(endNs - startNs); }
    /** Text before the first '.' of the name. */
    std::string layer() const;
};

/** Thread-safe recorder. */
class Tracer
{
  public:
    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        /** @p job empty inherits the enclosing span's job id. */
        Scope(Tracer& tracer, const std::string& name,
              const std::string& job = std::string());
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& tracer_;
        int id_ = -1;
        int savedParent_ = -1;
    };

    /** The recorded spans; read only once no span is open. */
    const std::vector<Span>& spans() const { return spans_; }

    /** Self time per layer: durations minus child coverage. */
    std::map<std::string, double> selfSeconds() const;

    /**
     * Structural check: every span is closed, and every parent
     * exists, was recorded on the same thread, and encloses its
     * child.  @return an empty string when valid, else the first
     * violation.
     */
    std::string validate() const;

    /** Write the Chrome-trace JSON; @return false on an I/O error. */
    bool writeChromeTrace(const std::string& path) const;

  private:
    int open(const std::string& name, const std::string& job,
             int& savedParent);
    void close(int id, int savedParent);

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::uint64_t, int> threads_; ///< thread hash -> index
    const std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
};

} // namespace splashbench

#endif // SPLASHBENCH_SPANS_H
