#include "spans.h"

#include <cstdio>
#include <functional>
#include <thread>

#include "util/wire.h"

namespace splashbench {

namespace {

// The innermost open span of the calling thread (one Tracer records
// at a time, so a single slot per thread suffices).
thread_local int tlsCurrent = -1;

} // namespace

std::string
Span::layer() const
{
    return name.substr(0, name.find('.'));
}

Tracer::Scope::Scope(Tracer& tracer, const std::string& name,
                     const std::string& job)
    : tracer_(tracer)
{
    id_ = tracer_.open(name, job, savedParent_);
}

Tracer::Scope::~Scope()
{
    tracer_.close(id_, savedParent_);
}

int
Tracer::open(const std::string& name, const std::string& job,
             int& savedParent)
{
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t self =
        std::hash<std::thread::id>()(std::this_thread::get_id());
    std::lock_guard<std::mutex> guard(mutex_);
    Span span;
    span.name = name;
    span.id = static_cast<int>(spans_.size());
    span.parent = tlsCurrent;
    span.job = job.empty() && tlsCurrent >= 0 ? spans_[tlsCurrent].job
                                              : job;
    const auto known = threads_.find(self);
    span.thread = known != threads_.end()
                      ? known->second
                      : (threads_[self] = static_cast<int>(threads_.size()));
    span.startNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - origin_)
            .count();
    spans_.push_back(std::move(span));
    savedParent = tlsCurrent;
    tlsCurrent = static_cast<int>(spans_.size()) - 1;
    return tlsCurrent;
}

void
Tracer::close(int id, int savedParent)
{
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> guard(mutex_);
    spans_[id].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - origin_)
            .count();
    tlsCurrent = savedParent;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::vector<double> childCover(spans_.size(), 0.0);
    for (const Span& span : spans_)
        if (span.parent >= 0)
            childCover[span.parent] += span.seconds();
    std::map<std::string, double> self;
    for (const Span& span : spans_)
        self[span.layer()] += span.seconds() - childCover[span.id];
    return self;
}

std::string
Tracer::validate() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (const Span& span : spans_) {
        const std::string at = "span " + std::to_string(span.id) + " (" +
                               span.name + ")";
        if (span.endNs < span.startNs)
            return at + " is not closed";
        if (span.parent < 0)
            continue;
        if (span.parent >= span.id)
            return at + " names a parent recorded after it";
        const Span& parent = spans_[span.parent];
        if (parent.thread != span.thread)
            return at + " has a parent on another thread";
        if (parent.startNs > span.startNs || parent.endNs < span.endNs)
            return at + " is not enclosed by its parent";
        if (parent.job != span.job && !parent.job.empty())
            return at + " leaves its parent's job";
    }
    return std::string();
}

bool
Tracer::writeChromeTrace(const std::string& path) const
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::lock_guard<std::mutex> guard(mutex_);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        std::fprintf(out,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%d,\"parent\":%d,\"job\":\"%s\"}}",
                     i == 0 ? "" : ",\n",
                     splash::wire::jsonEscape(span.name).c_str(),
                     splash::wire::jsonEscape(span.layer()).c_str(),
                     span.thread, 1e-3 * double(span.startNs),
                     1e-3 * double(span.endNs - span.startNs), span.id,
                     span.parent,
                     splash::wire::jsonEscape(span.job).c_str());
    }
    std::fputs("\n]}\n", out);
    return std::fclose(out) == 0;
}

} // namespace splashbench
